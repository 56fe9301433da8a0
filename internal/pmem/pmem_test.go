package pmem

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoundsSizeToLine(t *testing.T) {
	r := NewRegion(100, Config{})
	if r.Size() != 128 {
		t.Fatalf("size = %d, want 128", r.Size())
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-sized region")
		}
	}()
	NewRegion(0, Config{})
}

func TestLoadStoreRoundTrip(t *testing.T) {
	r := NewRegion(1024, Config{})
	r.Store(8, 0xDEADBEEF)
	if got := r.Load(8); got != 0xDEADBEEF {
		t.Fatalf("Load = %#x, want 0xDEADBEEF", got)
	}
	if got := r.Load(16); got != 0 {
		t.Fatalf("untouched word = %#x, want 0", got)
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	r := NewRegion(1024, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for misaligned access")
		}
	}()
	r.Load(3)
}

func TestOutOfRangePanics(t *testing.T) {
	r := NewRegion(1024, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	r.Store(1024, 1)
}

func TestCAS(t *testing.T) {
	r := NewRegion(1024, Config{})
	r.Store(0, 5)
	if r.CAS(0, 4, 9) {
		t.Fatal("CAS with wrong old value succeeded")
	}
	if !r.CAS(0, 5, 9) {
		t.Fatal("CAS with right old value failed")
	}
	if got := r.Load(0); got != 9 {
		t.Fatalf("after CAS value = %d, want 9", got)
	}
}

func TestAdd(t *testing.T) {
	r := NewRegion(1024, Config{})
	r.Store(0, 10)
	if got := r.Add(0, 5); got != 15 {
		t.Fatalf("Add returned %d, want 15", got)
	}
}

func TestCrashLosesUnflushedStores(t *testing.T) {
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.Store(0, 1)   // line 0: will be flushed
	r.Store(64, 2)  // line 1: will not
	r.Store(128, 3) // line 2: flushed via FlushRange
	r.Store(192, 4) // line 3: flushed via FlushRange
	r.Flush(0)
	r.FlushRange(128, 128)
	r.Fence()
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := r.Load(0); got != 1 {
		t.Fatalf("flushed word lost: got %d", got)
	}
	if got := r.Load(64); got != 0 {
		t.Fatalf("unflushed word survived: got %d", got)
	}
	if got := r.Load(128); got != 3 {
		t.Fatalf("range-flushed word lost: got %d", got)
	}
	if got := r.Load(192); got != 4 {
		t.Fatalf("range-flushed word lost: got %d", got)
	}
}

func TestCrashLineGranularity(t *testing.T) {
	// Two words on the same line: flushing one persists both (lines are
	// never torn).
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.Store(0, 1)
	r.Store(8, 2)
	r.Flush(0)
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if r.Load(0) != 1 || r.Load(8) != 2 {
		t.Fatal("words sharing a flushed line must both persist")
	}
}

func TestCrashOnFastModeErrors(t *testing.T) {
	r := NewRegion(1024, Config{})
	if err := r.Crash(); err != ErrFastMode {
		t.Fatalf("Crash on fast region: err = %v, want ErrFastMode", err)
	}
}

func TestPersistFlushesEverything(t *testing.T) {
	r := NewRegion(1<<16, Config{Mode: ModeCrashSim})
	for off := uint64(0); off < 1<<16; off += 8 {
		r.Store(off, off)
	}
	r.Persist()
	if n := r.DirtyLines(); n != 0 {
		t.Fatalf("dirty lines after Persist = %d, want 0", n)
	}
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 1<<16; off += 8 {
		if got := r.Load(off); got != off {
			t.Fatalf("word %#x = %#x after Persist+Crash", off, got)
		}
	}
}

func TestEvictProbOneSurvivesAll(t *testing.T) {
	r := NewRegion(4096, Config{Mode: ModeCrashSim, EvictProb: 1})
	r.Store(64, 42) // never flushed
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := r.Load(64); got != 42 {
		t.Fatalf("EvictProb=1 should write back everything; got %d", got)
	}
}

func TestEvictProbHalfIsSeeded(t *testing.T) {
	run := func() []uint64 {
		r := NewRegion(1<<14, Config{Mode: ModeCrashSim, EvictProb: 0.5, Seed: 7})
		for off := uint64(0); off < 1<<14; off += 64 {
			r.Store(off, off+1)
		}
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for off := uint64(0); off < 1<<14; off += 64 {
			got = append(got, r.Load(off))
		}
		return got
	}
	a, b := run(), run()
	survived := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give the same eviction outcome")
		}
		if a[i] != 0 {
			survived++
		}
	}
	if survived == 0 || survived == len(a) {
		t.Fatalf("EvictProb=0.5 survived %d/%d lines; expected a strict subset", survived, len(a))
	}
}

func TestStatsCount(t *testing.T) {
	r := NewRegion(1024, Config{Mode: ModeCrashSim})
	r.Store(0, 1)
	r.Load(0)
	r.CAS(0, 1, 2)
	r.Flush(0)
	r.Fence()
	s := r.Stats()
	if s.Stores != 1 || s.CASes != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LinesBack != 1 {
		t.Fatalf("LinesBack = %d, want 1", s.LinesBack)
	}
}

func TestFlushCleanLineNoWriteBack(t *testing.T) {
	r := NewRegion(1024, Config{Mode: ModeCrashSim})
	r.Flush(0) // nothing dirty
	if s := r.Stats(); s.LinesBack != 0 {
		t.Fatalf("LinesBack = %d for clean flush, want 0", s.LinesBack)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := NewRegion(4096, Config{})
	msg := []byte("persistent memory allocation")
	r.WriteBytes(13, msg) // deliberately unaligned
	got := make([]byte, len(msg))
	r.ReadBytes(13, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("ReadBytes = %q, want %q", got, msg)
	}
}

func TestBytesQuick(t *testing.T) {
	r := NewRegion(1<<16, Config{})
	f := func(off uint16, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		o := uint64(off)
		if o+uint64(len(data)) > r.Size() {
			o = 0
		}
		r.WriteBytes(o, data)
		got := make([]byte, len(data))
		r.ReadBytes(o, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// EqualBytes must agree with ReadBytes + bytes.Equal for every alignment and
// length, including a mismatch in any single byte of a word or of the tail.
func TestEqualBytes(t *testing.T) {
	r := NewRegion(4096, Config{})
	data := make([]byte, 40)
	for i := range data {
		data[i] = byte(7*i + 1)
	}
	for off := uint64(64); off < 72; off++ {
		for n := 0; n <= len(data); n++ {
			want := data[:n]
			r.Zero(64, 128)
			r.WriteBytes(off, want)
			got := make([]byte, n)
			r.ReadBytes(off, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("off %d n %d: ReadBytes = %v, want %v", off, n, got, want)
			}
			if !r.EqualBytes(off, want) {
				t.Fatalf("off %d n %d: EqualBytes = false on equal bytes", off, n)
			}
			probe := append([]byte(nil), want...)
			for i := range probe {
				probe[i] ^= 0x80
				if r.EqualBytes(off, probe) {
					t.Fatalf("off %d n %d: EqualBytes = true with byte %d flipped", off, n, i)
				}
				probe[i] ^= 0x80
			}
		}
	}
}

func TestWriteBytesMarksDirty(t *testing.T) {
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.WriteBytes(100, []byte{1, 2, 3, 4})
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	r.ReadBytes(100, got)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatal("unflushed WriteBytes survived crash")
	}
	r.WriteBytes(100, []byte{1, 2, 3, 4})
	r.FlushRange(100, 4)
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	r.ReadBytes(100, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatal("flushed WriteBytes lost in crash")
	}
}

func TestZero(t *testing.T) {
	r := NewRegion(4096, Config{})
	for off := uint64(0); off < 256; off += 8 {
		r.Store(off, ^uint64(0))
	}
	r.Zero(64, 128)
	for off := uint64(0); off < 256; off += 8 {
		want := ^uint64(0)
		if off >= 64 && off < 192 {
			want = 0
		}
		if got := r.Load(off); got != want {
			t.Fatalf("word %d = %#x, want %#x", off, got, want)
		}
	}
}

func TestConcurrentCASCounter(t *testing.T) {
	r := NewRegion(1024, Config{Mode: ModeCrashSim})
	const goroutines, incs = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				for {
					v := r.Load(0)
					if r.CAS(0, v, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Load(0); got != goroutines*incs {
		t.Fatalf("counter = %d, want %d", got, goroutines*incs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := NewRegion(1<<14, Config{Mode: ModeCrashSim})
	rng := rand.New(rand.NewSource(1))
	for off := uint64(0); off < r.Size(); off += 8 {
		r.Store(off, rng.Uint64())
	}
	r.Persist()
	path := filepath.Join(t.TempDir(), "heap.img")
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadFile(path, Config{Mode: ModeCrashSim})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size() != r.Size() {
		t.Fatalf("size = %d, want %d", r2.Size(), r.Size())
	}
	for off := uint64(0); off < r.Size(); off += 8 {
		if r2.Load(off) != r.Load(off) {
			t.Fatalf("word %#x differs after save/load", off)
		}
	}
	// The loaded image must already be persistent: crash right away.
	if err := r2.Crash(); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < r.Size(); off += 8 {
		if r2.Load(off) != r.Load(off) {
			t.Fatalf("word %#x lost after load+crash", off)
		}
	}
}

func TestSaveExcludesUnflushed(t *testing.T) {
	// Saving persists the shadow image: unflushed stores must not leak
	// into the file.
	r := NewRegion(4096, Config{Mode: ModeCrashSim})
	r.Store(0, 7)
	r.Flush(0)
	r.Store(64, 9) // not flushed
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRegion(&buf, Config{Mode: ModeCrashSim})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Load(0) != 7 {
		t.Fatal("flushed word missing from image")
	}
	if r2.Load(64) != 0 {
		t.Fatal("unflushed word leaked into image")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadRegion(bytes.NewReader([]byte("not an image")), Config{}); err == nil {
		t.Fatal("expected error for garbage image")
	}
}

func TestStoreHookFires(t *testing.T) {
	n := 0
	r := NewRegion(1024, Config{StoreHook: func() { n++ }})
	r.Store(0, 1)
	r.CAS(0, 1, 2)
	r.Add(0, 1)
	if n != 3 {
		t.Fatalf("hook fired %d times, want 3", n)
	}
}
