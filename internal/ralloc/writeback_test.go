package ralloc

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/pptr"
)

// recoverers runs each recovery test against both implementations.
var recoverers = []struct {
	name    string
	recover func(*Heap) (RecoveryStats, error)
}{
	{"Recover", (*Heap).Recover},
	{"RecoverParallel4", func(h *Heap) (RecoveryStats, error) { return h.RecoverParallel(4) }},
}

func crashAndRecover(t *testing.T, h *Heap, recover func(*Heap) (RecoveryStats, error)) RecoveryStats {
	t.Helper()
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := recover(h)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestRecoveredRunClearSurvivesSecondCrash checks why recovery must persist
// the descriptors it clears. Recovery frees a leaked 3-superblock run; the
// program, without Close, reuses the run's second superblock for list nodes;
// a second crash follows. Were the run head's clear not durable, the second
// recovery would read the stale head back, free the whole run — live nodes
// included — and Malloc would hand those nodes out again.
func TestRecoveredRunClearSurvivesSecondCrash(t *testing.T) {
	for _, rc := range recoverers {
		for _, evict := range []float64{0, 1} {
			t.Run(fmt.Sprintf("%s/evict=%v", rc.name, evict), func(t *testing.T) {
				h := crashHeap(t, evict)
				r := h.Region()
				run := h.NewHandle().Malloc(3*SuperblockBytes - 64) // leaked
				if run == 0 {
					t.Fatal("OOM")
				}
				head, _ := h.lay.descIndexOf(run)
				crashAndRecover(t, h, rc.recover)

				// Free superblocks pop in LIFO order, so nodes fill the
				// run's second superblock before its head is reused.
				hd := h.NewHandle()
				live := map[uint64]bool{}
				var prev uint64
				for {
					off := hd.Malloc(64)
					if off == 0 {
						t.Fatal("OOM before reaching the run's second superblock")
					}
					if prev == 0 {
						r.Store(off, pptr.Nil)
					} else {
						r.Store(off, pptr.Pack(off, prev))
					}
					r.Flush(off)
					r.Fence()
					live[off] = true
					prev = off
					idx, _ := h.lay.descIndexOf(off)
					if idx == head {
						t.Fatal("run head reused before its second superblock")
					}
					if idx == head+1 {
						break
					}
				}
				h.SetRoot(0, prev)

				crashAndRecover(t, h, rc.recover)
				if _, err := h.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if got := len(walkList(h, 0)); got != len(live) {
					t.Fatalf("list length %d after second recovery, want %d", got, len(live))
				}
				hd = h.NewHandle()
				for i := 0; i < 4096; i++ {
					if off := hd.Malloc(64); live[off] {
						t.Fatalf("Malloc returned live node %#x", off)
					}
				}
			})
		}
	}
}

// TestRecoveryPersistenceCost pins what recovery writes back: one flush per
// descriptor it clears, each of which writes back a dirty line, and one
// fence. With NoFlush it issues neither.
func TestRecoveryPersistenceCost(t *testing.T) {
	for _, rc := range recoverers {
		for _, noFlush := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/NoFlush=%v", rc.name, noFlush), func(t *testing.T) {
				// A NoFlush heap survives the crash only through eviction.
				evict := 0.0
				if noFlush {
					evict = 1
				}
				h, _, err := Open("", Config{
					SBRegion:    8 << 20,
					GrowthChunk: 1 << 20,
					NoFlush:     noFlush,
					Pmem:        pmem.Config{Mode: pmem.ModeCrashSim, EvictProb: evict, Seed: 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				hd := h.NewHandle()
				buildList(t, h, hd, 3000, 0)
				for i := 0; i < 2000; i++ {
					hd.Malloc(256) // leaked small blocks
				}
				hd.Malloc(150_000) // leaked large run
				if err := h.Region().Crash(); err != nil {
					t.Fatal(err)
				}
				h.GetRoot(0, nil)
				st0 := h.Region().Stats()
				stats, err := rc.recover(h)
				if err != nil {
					t.Fatal(err)
				}
				st1 := h.Region().Stats()
				flushes, fences, back := st1.Flushes-st0.Flushes, st1.Fences-st0.Fences, st1.LinesBack-st0.LinesBack
				if stats.FreeSuperblocks == 0 {
					t.Fatal("recovery freed no superblocks; the test measures nothing")
				}
				want, wantFences := stats.FreeSuperblocks, uint64(1)
				if noFlush {
					want, wantFences = 0, 0
				}
				if flushes != want || fences != wantFences || back != want {
					t.Fatalf("recovery flushes/fences/lines back = %d/%d/%d, want %d/%d/%d",
						flushes, fences, back, want, wantFences, want)
				}
			})
		}
	}
}
