package ralloc

import (
	"math/rand"
	"testing"

	"repro/internal/pptr"
)

// buildWideGraph makes a bushy pointer graph (so parallel tracing has
// fan-out to exploit) plus a deep chain (so work-sharing must split within
// one structure). Returns the root offset and the expected reachable count.
func buildWideGraph(t *testing.T, h *Heap, hd *Handle, fanout, depth int) (uint64, uint64) {
	t.Helper()
	r := h.Region()
	count := uint64(0)
	newNode := func() uint64 {
		off := hd.Malloc(64)
		if off == 0 {
			t.Fatal("OOM")
		}
		r.Zero(off, 64)
		count++
		return off
	}
	// Deep chain.
	var chain uint64
	for i := 0; i < depth; i++ {
		n := newNode()
		if chain != 0 {
			r.Store(n, pptr.Pack(n, chain))
		}
		r.FlushRange(n, 64)
		chain = n
	}
	// Bushy tree: root with fanout children, each with fanout leaves.
	root := newNode()
	r.Store(root, pptr.Pack(root, chain))
	for i := 1; i <= fanout && i < 7; i++ {
		mid := newNode()
		for j := 1; j <= fanout && j < 7; j++ {
			leaf := newNode()
			r.Store(leaf+8, uint64(j))
			r.FlushRange(leaf, 64)
			r.Store(mid+uint64(j)*8, pptr.Pack(mid+uint64(j)*8, leaf))
		}
		r.FlushRange(mid, 64)
		r.Store(root+uint64(i)*8, pptr.Pack(root+uint64(i)*8, mid))
	}
	r.FlushRange(root, 64)
	r.Fence()
	return root, count
}

func TestRecoverParallelMatchesSequential(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		buildAndCheck := func(parallel bool) (RecoveryStats, *Heap) {
			h := crashHeap(t, 0)
			hd := h.NewHandle()
			root, _ := buildWideGraph(t, h, hd, 6, 3000)
			// Plus leaked noise.
			for i := 0; i < 2000; i++ {
				hd.Malloc(48)
			}
			h.SetRoot(0, root)
			if err := h.Region().Crash(); err != nil {
				t.Fatal(err)
			}
			h.GetRoot(0, nil)
			var stats RecoveryStats
			var err error
			if parallel {
				stats, err = h.RecoverParallel(workers)
			} else {
				stats, err = h.Recover()
			}
			if err != nil {
				t.Fatal(err)
			}
			return stats, h
		}
		seqStats, _ := buildAndCheck(false)
		parStats, ph := buildAndCheck(true)
		if seqStats.ReachableBlocks != parStats.ReachableBlocks {
			t.Fatalf("workers=%d: parallel reachable %d != sequential %d",
				workers, parStats.ReachableBlocks, seqStats.ReachableBlocks)
		}
		if seqStats.ReachableBytes != parStats.ReachableBytes {
			t.Fatalf("workers=%d: bytes %d != %d", workers,
				parStats.ReachableBytes, seqStats.ReachableBytes)
		}
		if seqStats.FreeSuperblocks != parStats.FreeSuperblocks ||
			seqStats.PartialSBs != parStats.PartialSBs ||
			seqStats.FullSBs != parStats.FullSBs {
			t.Fatalf("workers=%d: sweep stats differ: seq %+v par %+v",
				workers, seqStats, parStats)
		}
		// The work counters behind the Fig. 6 linearity checks must not
		// depend on scan order, batching or worker count either.
		if seqStats.TraceWork != parStats.TraceWork || seqStats.SweepUnits != parStats.SweepUnits {
			t.Fatalf("workers=%d: work counters differ: seq trace %d sweep %d, par trace %d sweep %d",
				workers, seqStats.TraceWork, seqStats.SweepUnits, parStats.TraceWork, parStats.SweepUnits)
		}
		if _, err := ph.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestRecoverParallelPreservesStructure(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	nodes := buildList(t, h, hd, 3000, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.RecoverParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != uint64(len(nodes)) {
		t.Fatalf("reachable = %d, want %d", stats.ReachableBlocks, len(nodes))
	}
	if got := len(walkList(h, 0)); got != len(nodes) {
		t.Fatalf("list length = %d after parallel recovery", got)
	}
	// Post-recovery allocation avoids survivors.
	live := map[uint64]bool{}
	for _, off := range walkList(h, 0) {
		live[off] = true
	}
	hd2 := h.NewHandle()
	for i := 0; i < 10000; i++ {
		off := hd2.Malloc(64)
		if off == 0 {
			t.Fatal("OOM")
		}
		if live[off] {
			t.Fatalf("reachable block %#x re-allocated", off)
		}
	}
}

func TestRecoverParallelLargeRuns(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	r := h.Region()
	hdr := hd.Malloc(16)
	kept := hd.Malloc(200_000)
	r.Store(kept, 0xAB)
	r.FlushRange(kept, 8)
	r.Store(hdr, pptr.Pack(hdr, kept))
	r.FlushRange(hdr, 8)
	r.Fence()
	h.SetRoot(0, hdr)
	hd.Malloc(300_000) // leaked run
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.RecoverParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LargeRuns != 1 {
		t.Fatalf("kept runs = %d, want 1", stats.LargeRuns)
	}
	if r.Load(kept) != 0xAB {
		t.Fatal("large block content lost")
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverParallelSingleWorkerFallsBack(t *testing.T) {
	h := crashHeap(t, 0)
	hd := h.NewHandle()
	buildList(t, h, hd, 100, 0)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil)
	stats, err := h.RecoverParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachableBlocks != 100 {
		t.Fatalf("reachable = %d", stats.ReachableBlocks)
	}
}

func TestRecoverParallelRandomizedEquivalence(t *testing.T) {
	// Random graphs, random eviction: parallel and sequential recovery
	// must agree block-for-block on the reachable set size.
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 99))
		build := func(h *Heap) {
			hd := h.NewHandle()
			r := h.Region()
			const pool = 400
			nodes := make([]uint64, pool)
			for i := range nodes {
				nodes[i] = hd.Malloc(64)
				r.Zero(nodes[i], 64)
			}
			for _, off := range nodes {
				for s := uint64(0); s < 4; s++ {
					if rng.Intn(2) == 0 {
						tgt := nodes[rng.Intn(pool)]
						if tgt != off {
							r.Store(off+s*8, pptr.Pack(off+s*8, tgt))
						}
					}
				}
				r.FlushRange(off, 64)
			}
			r.Fence()
			h.SetRoot(0, nodes[0])
			h.SetRoot(5, nodes[pool/2])
		}
		seq := crashHeap(t, 0)
		build(seq)
		// Rebuild identically for the parallel heap (same seed stream).
		rng = rand.New(rand.NewSource(int64(trial) + 99))
		par := crashHeap(t, 0)
		build(par)

		if err := seq.Region().Crash(); err != nil {
			t.Fatal(err)
		}
		if err := par.Region().Crash(); err != nil {
			t.Fatal(err)
		}
		seq.GetRoot(0, nil)
		seq.GetRoot(5, nil)
		par.GetRoot(0, nil)
		par.GetRoot(5, nil)
		s1, err := seq.Recover()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := par.RecoverParallel(4)
		if err != nil {
			t.Fatal(err)
		}
		if s1.ReachableBlocks != s2.ReachableBlocks {
			t.Fatalf("trial %d: sequential %d vs parallel %d reachable",
				trial, s1.ReachableBlocks, s2.ReachableBlocks)
		}
		if _, err := par.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
