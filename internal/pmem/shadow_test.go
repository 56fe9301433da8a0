package pmem

import (
	"bytes"
	"sync"
	"testing"
)

// shadowChunks counts the allocated chunks of r's persistent image.
func (r *Region) shadowChunks() int {
	n := 0
	for i := range r.shadow {
		if r.shadow[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestShadowAllocatedOnFirstWriteBack(t *testing.T) {
	r := NewRegion(256<<20, Config{Mode: ModeCrashSim})
	r.Store(5<<20, 1)
	r.Flush(4 << 20) // clean line: nothing to write back
	if n := r.shadowChunks(); n != 0 {
		t.Fatalf("%d shadow chunks before any write-back, want 0", n)
	}
	r.Flush(5 << 20)
	r.Store(5<<20+64, 2)
	r.Flush(5<<20 + 64) // same chunk
	if n := r.shadowChunks(); n != 1 {
		t.Fatalf("%d shadow chunks after write-backs to one chunk, want 1", n)
	}
}

// lazyRegion returns a crash-sim region of four chunks plus a partial fifth,
// with lines flushed in chunks 0, 2 and 4 and an unflushed store in chunk 1.
func lazyRegion(cfg Config) *Region {
	cfg.Mode = ModeCrashSim
	r := NewRegion(4*chunkWords*WordBytes+4096, cfg)
	for _, off := range []uint64{0, 2*chunkWords*WordBytes + 128, r.Size() - 8} {
		r.Store(off, off+1)
		r.Flush(off)
	}
	r.Store(chunkWords*WordBytes+64, 9)
	return r
}

func TestCrashRestoresZerosForUnflushedChunk(t *testing.T) {
	r := lazyRegion(Config{})
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := r.Load(chunkWords*WordBytes + 64); got != 0 {
		t.Fatalf("never-flushed chunk reads %d after crash, want 0", got)
	}
	for _, off := range []uint64{0, 2*chunkWords*WordBytes + 128, r.Size() - 8} {
		if got := r.Load(off); got != off+1 {
			t.Fatalf("flushed word %#x = %d after crash, want %d", off, got, off+1)
		}
	}

	// With EvictProb 1 every line survives, including those of a chunk
	// the crash itself is the first to write back to.
	r = lazyRegion(Config{EvictProb: 1})
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := r.Load(chunkWords*WordBytes + 64); got != 9 {
		t.Fatalf("EvictProb 1 lost an unflushed line: got %d, want 9", got)
	}
}

func TestLazyShadowSaveLoadByteIdentical(t *testing.T) {
	r := lazyRegion(Config{})
	var img bytes.Buffer
	if err := r.Save(&img); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRegion(bytes.NewReader(img.Bytes()), Config{Mode: ModeCrashSim})
	if err != nil {
		t.Fatal(err)
	}
	if n := r2.shadowChunks(); n != 3 {
		t.Fatalf("loaded region holds %d shadow chunks, want 3 (the non-zero ones)", n)
	}
	var img2 bytes.Buffer
	if err := r2.Save(&img2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), img2.Bytes()) {
		t.Fatal("Save → LoadRegion → Save is not byte-identical")
	}
}

// TestConcurrentFirstWriteBack races two first write-backs into one fresh
// chunk: both must land in the chunk that is installed.
func TestConcurrentFirstWriteBack(t *testing.T) {
	for i := 0; i < 200; i++ {
		r := NewRegion(2*chunkWords*WordBytes, Config{Mode: ModeCrashSim})
		base := uint64(chunkWords * WordBytes)
		var wg sync.WaitGroup
		for g := uint64(0); g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				off := base + g*LineBytes
				r.Store(off, g+1)
				r.Flush(off)
			}()
		}
		wg.Wait()
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
		if a, b := r.Load(base), r.Load(base+LineBytes); a != 1 || b != 2 {
			t.Fatalf("round %d: lines read %d, %d after crash, want 1, 2", i, a, b)
		}
	}
}
