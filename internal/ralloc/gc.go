package ralloc

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// Recovery (§4.5) employs a tracing garbage collector to identify all blocks
// reachable from the persistent roots, then reconstructs every piece of
// transient metadata: anchors, block free chains, partial lists and the
// superblock free list. Because the size of every block is determined by its
// superblock's persisted size class, a single pointer suffices to tell how
// much memory it keeps alive.

// Filter enumerates the pointers inside a block by calling g.Visit for each
// of them (§4.5.1). A nil Filter selects conservative tracing: every 64-bit
// aligned word carrying the off-holder pattern is treated as a potential
// pointer. User-provided filters make tracing precise, faster, and able to
// handle nonstandard pointer representations (such as the counter-tagged
// offsets used by the lock-free data structures).
type Filter func(g *GC, off uint64)

// GC is the tracing context handed to filter functions. In parallel
// recovery (RecoverParallel) several GCs — one per worker — share one
// visited bitmap, marked with CAS; each keeps its own pending stack and
// tallies.
type GC struct {
	h       *Heap
	used    uint64 // snapshot of the used watermark
	visited []uint64
	shared  bool // visited bitmap is shared between workers
	pendOff []uint64
	pendF   []Filter

	reachableBlocks uint64
	reachableBytes  uint64
	traceWork       uint64 // pointer candidates examined + words scanned
}

func newGC(h *Heap) *GC {
	used := h.SBUsed()
	return &GC{
		h:       h,
		used:    used,
		visited: make([]uint64, (used/8+63)/64),
	}
}

func (g *GC) bit(off uint64) (word, mask uint64) {
	i := (off - g.h.lay.sbStart) / 8
	return i / 64, uint64(1) << (i % 64)
}

func (g *GC) marked(off uint64) bool {
	w, m := g.bit(off)
	if g.shared {
		return atomic.LoadUint64(&g.visited[w])&m != 0
	}
	return g.visited[w]&m != 0
}

// mark sets off's bit and reports whether this call was the one that set it.
func (g *GC) mark(off uint64) bool {
	w, m := g.bit(off)
	if !g.shared {
		if g.visited[w]&m != 0 {
			return false
		}
		g.visited[w] |= m
		return true
	}
	for {
		old := atomic.LoadUint64(&g.visited[w])
		if old&m != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&g.visited[w], old, old|m) {
			return true
		}
	}
}

// blockInfo validates a candidate pointer and returns the block it denotes.
// Interior pointers are not supported (§4.5): off must be a block boundary.
func (g *GC) blockInfo(off uint64) (size uint64, ok bool) {
	h := g.h
	if off < h.lay.sbStart || off >= h.lay.sbStart+g.used {
		return 0, false
	}
	idx, _ := h.lay.descIndexOf(off)
	d := h.lay.descOff(idx)
	r := h.region
	cls := r.Load(d + dOffClass)
	switch {
	case cls == contClass:
		// Middle of a large run: not a valid block pointer.
		return 0, false
	case cls == 0:
		bs := r.Load(d + dOffBlockSize)
		if bs == 0 || r.Load(d+dOffNumSB) == 0 {
			return 0, false // uninitialized superblock
		}
		if off != h.lay.sbOff(idx) {
			return 0, false
		}
		return bs, true
	case cls <= sizeclass.NumClasses:
		bs := r.Load(d + dOffBlockSize)
		if bs != sizeclass.ClassToSize(int(cls)) {
			return 0, false // stale or torn descriptor
		}
		if (off-h.lay.sbOff(idx))%bs != 0 {
			return 0, false
		}
		return bs, true
	default:
		return 0, false
	}
}

// Visit marks the block at off reachable (if it is a valid block) and queues
// it for scanning with filter f (nil = conservative). Filters call Visit for
// every pointer they enumerate; Visit is idempotent per block.
func (g *GC) Visit(off uint64, f Filter) {
	g.traceWork++
	size, ok := g.blockInfo(off)
	if !ok || !g.mark(off) {
		return
	}
	g.reachableBlocks++
	g.reachableBytes += size
	g.pendOff = append(g.pendOff, off)
	g.pendF = append(g.pendF, f)
}

// conservative is the default filter (§4.5.1 Fig. 3): scan every aligned
// word of the block and visit anything that decodes as an off-holder.
func (g *GC) conservative(off uint64) {
	size, ok := g.blockInfo(off)
	if !ok {
		return
	}
	r := g.h.region
	end := off + size&^7
	g.traceWork += (end - off) / 8
	for o := off; o < end; o += 8 {
		if t, tok := pptr.Unpack(o, r.Load(o)); tok {
			g.Visit(t, nil)
		}
	}
}

// collect traces all blocks reachable from the persistent roots.
func (g *GC) collect() {
	h := g.h
	for i := 0; i < NumRoots; i++ {
		slot := rootOff(i)
		target, ok := pptr.Unpack(slot, h.region.Load(slot))
		if !ok {
			continue
		}
		h.mu.Lock()
		f := h.filters[i]
		h.mu.Unlock()
		g.Visit(target, f)
	}
	for len(g.pendOff) > 0 {
		n := len(g.pendOff) - 1
		off, f := g.pendOff[n], g.pendF[n]
		g.pendOff, g.pendF = g.pendOff[:n], g.pendF[:n]
		if f == nil {
			g.conservative(off)
		} else {
			f(g, off)
		}
	}
}

// Trace runs only the tracing phase of recovery — marking all blocks
// reachable from the persistent roots with the currently registered filters
// — without reconstructing any metadata. It is read-only and safe to call
// repeatedly, e.g. to audit what a given filter configuration would keep
// before committing to Recover (whose sweep overwrites the first word of
// every free block).
func (h *Heap) Trace() (blocks, bytes uint64) {
	g := newGC(h)
	g.collect()
	return g.reachableBlocks, g.reachableBytes
}

// RecoveryStats summarizes what Recover found and rebuilt.
//
// TraceWork and SweepUnits are deterministic work counters: for a fixed heap
// image and filter registration they do not depend on scheduling or wall
// time, so linearity properties of recovery cost can be asserted on them
// without flaky clock-ratio comparisons.
type RecoveryStats struct {
	ReachableBlocks uint64
	ReachableBytes  uint64
	FreeSuperblocks uint64 // retired to the superblock free list
	PartialSBs      uint64
	FullSBs         uint64
	LargeRuns       uint64
	TraceWork       uint64 // pointer candidates examined + words scanned (trace)
	SweepUnits      uint64 // superblocks/runs processed by the sweep
	TraceTime       time.Duration
	SweepTime       time.Duration
	Duration        time.Duration
}

// Recover performs offline post-crash recovery (the paper's recover()):
// trace all blocks reachable from the persistent roots, then reconstruct all
// allocator metadata so that all and only the reachable blocks are allocated
// — the recoverability criterion. Filters must have been registered (via
// GetRoot) beforehand. The heap stays dirty until a clean Close, so a crash
// during recovery, or at any point before Close, simply causes recovery to
// run again. Recovery therefore writes back only the descriptors it clears
// (one flush each, then one fence); the metadata it rebuilds stays in the
// cache until Close persists it.
func (h *Heap) Recover() (RecoveryStats, error) {
	start := time.Now()
	h.dropHandles()

	// Steps 4–5: trace.
	g := newGC(h)
	g.collect()
	traceDone := time.Now()

	stats := h.rebuildFromTrace(g)
	stats.TraceTime = traceDone.Sub(start)
	stats.SweepTime = time.Since(traceDone)
	stats.Duration = time.Since(start)
	return stats, nil
}

// rebuildFromTrace performs steps 3 and 6–10 of recovery: reset the global
// lists, sweep every used superblock keeping exactly the blocks marked in
// g, rebuild all metadata, and persist the descriptors it clears. It is
// shared by full-crash recovery (Recover) and the stop-the-world collection
// used after partial, single-process crashes (Manager.Collect).
func (h *Heap) rebuildFromTrace(g *GC) RecoveryStats {
	r := h.region
	// Step 3: fresh global lists. Every shard slot up to MaxShards is
	// cleared — not just the active h.shards — so that stale heads left by
	// a crashed session that ran with a larger shard count can never leak
	// descriptors into a later remap.
	h.resetLists()

	// Steps 6–9: sweep every used superblock and rebuild its metadata.
	stats := RecoveryStats{
		ReachableBlocks: g.reachableBlocks,
		ReachableBytes:  g.reachableBytes,
		TraceWork:       g.traceWork,
	}
	n := h.usedDescs()
	for i := uint32(0); i < n; {
		stats.SweepUnits++
		d := h.lay.descOff(i)
		cls := r.Load(d + dOffClass)
		bs := r.Load(d + dOffBlockSize)
		numSB := r.Load(d + dOffNumSB)
		switch {
		case cls == 0 && bs > 0 && numSB > 0:
			// Large run.
			k := uint32(numSB)
			if k > n-i {
				k = n - i // torn run metadata: clamp and free
			}
			if g.marked(h.lay.sbOff(i)) && uint32(numSB) == k {
				r.Store(d+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))
				stats.LargeRuns++
				i += k
				continue
			}
			for j := uint32(0); j < k; j++ {
				h.clearAndRetire(i + j)
				stats.FreeSuperblocks++
			}
			i += k
		case cls == contClass:
			// Orphaned continuation (crash between persisting the
			// run body and its head, or mid-freeLarge).
			h.clearAndRetire(i)
			stats.FreeSuperblocks++
			i++
		case cls >= 1 && cls <= sizeclass.NumClasses && bs == sizeclass.ClassToSize(int(cls)):
			h.sweepSmall(g, i, int(cls), bs, &stats)
			i++
		default:
			// Never initialized, or stale/torn metadata with no
			// reachable blocks: plain free superblock.
			h.clearAndRetire(i)
			stats.FreeSuperblocks++
			i++
		}
	}

	// Step 10: order the descriptor clears before any handle can pop a
	// retired superblock. Nothing else is written back: see clearAndRetire.
	h.fence()
	return stats
}

// resetLists clears the superblock free list and every partial-list shard
// slot (all MaxShards of them, active or not).
func (h *Heap) resetLists() {
	r := h.region
	r.Store(offFreeHead, pptr.HeadNil)
	for c := 0; c <= sizeclass.NumClasses; c++ {
		r.Store(classEntryOff(c)+8, pptr.HeadNil) // reserved pre-v2 slot
		for s := uint32(0); s < MaxShards; s++ {
			r.Store(partialHeadOff(c, s), pptr.HeadNil)
		}
	}
}

// clearAndRetire resets descriptor i to the uninitialized state and pushes
// its superblock onto the free list.
//
// The clear is the one recovery write that must be durable, for the reason
// freeLarge persists its clears: once the superblock is reused, a stale run
// head or class brought back by a later crash would make that crash's sweep
// free live blocks. Everything else recovery writes (anchors, free chains,
// list heads) is transient: the heap stays dirty until a clean Close, which
// persists the whole region, and every recovery rebuilds it without reading
// it. The caller fences once after the sweep.
func (h *Heap) clearAndRetire(i uint32) {
	r := h.region
	d := h.lay.descOff(i)
	r.Store(d+dOffClass, 0)
	r.Store(d+dOffBlockSize, 0)
	r.Store(d+dOffNumSB, 0)
	r.Store(d+dOffAnchor, packAnchor(stateEmpty, anchorAvailNone, 0))
	h.flush(d)
	h.pushDesc(offFreeHead, dOffNextFree, i)
}

// sweepSmall rebuilds the block free chain and anchor of a small-class
// superblock, keeping exactly the traced blocks allocated (steps 6–8).
func (h *Heap) sweepSmall(g *GC, i uint32, c int, bs uint64, stats *RecoveryStats) {
	r := h.region
	d := h.lay.descOff(i)
	sb := h.lay.sbOff(i)
	total := uint32(SuperblockBytes / bs)

	var chainHead uint64 // next-field encoding: index+1, 0 = nil
	nFree := uint32(0)
	for b := total; b > 0; b-- {
		off := sb + uint64(b-1)*bs
		if g.marked(off) {
			continue
		}
		r.Store(off, chainHead)
		chainHead = uint64(b-1) + 1
		nFree++
	}
	switch {
	case nFree == total:
		h.clearAndRetire(i)
		stats.FreeSuperblocks++
	case nFree == 0:
		r.Store(d+dOffAnchor, packAnchor(stateFull, anchorAvailNone, 0))
		stats.FullSBs++
	default:
		r.Store(d+dOffAnchor, packAnchor(statePartial, uint32(chainHead-1), nFree))
		// Deterministic shard placement (index mod shard count): the
		// per-shard membership is the same whether the sweep runs
		// sequentially or in parallel.
		h.pushPartial(c, h.partialShardOf(i), i)
		stats.PartialSBs++
	}
}

// ----------------------------------------------------------------------
// Introspection used by tests.

// HeapCheck describes an allocator-metadata consistency snapshot. The heap
// must be quiescent (no concurrent operations).
type HeapCheck struct {
	FreeListLen    int
	PartialLens    [sizeclass.NumClasses + 1]int
	FreeBlocks     uint64 // blocks on superblock-internal chains
	AllocatedBlks  uint64 // blocks not on any chain (allocated or cached)
	UsedSuperblcks uint32
}

// CheckInvariants walks all allocator metadata and verifies structural
// invariants: anchors agree with their chains, chain entries are in-bounds
// and distinct, and no superblock appears on two lists. It returns the
// snapshot and the first violation found, if any. Quiescence is required.
func (h *Heap) CheckInvariants() (HeapCheck, error) {
	r := h.region
	var chk HeapCheck
	n := h.usedDescs()
	chk.UsedSuperblcks = n

	onFree := make(map[uint32]bool)
	_, idx, ok := pptr.UnpackHead(r.Load(offFreeHead))
	for ok {
		if onFree[idx] {
			return chk, fmt.Errorf("superblock %d appears twice on the free list", idx)
		}
		if idx >= n {
			return chk, fmt.Errorf("free list contains out-of-range superblock %d", idx)
		}
		onFree[idx] = true
		chk.FreeListLen++
		next := r.Load(h.lay.descOff(idx) + dOffNextFree)
		if next == 0 {
			break
		}
		idx = uint32(next - 1)
	}

	onPartial := make(map[uint32]int)
	for c := 1; c <= sizeclass.NumClasses; c++ {
		// Walk every shard slot, active or not: a descriptor stranded on
		// an inactive shard's list is a leak and must be reported.
		for s := uint32(0); s < MaxShards; s++ {
			_, idx, ok := pptr.UnpackHead(r.Load(partialHeadOff(c, s)))
			if ok && s >= h.shards {
				return chk, fmt.Errorf("superblock %d stranded on inactive shard %d of class %d", idx, s, c)
			}
			for ok {
				if prev, dup := onPartial[idx]; dup {
					return chk, fmt.Errorf("superblock %d on partial lists %d and %d", idx, prev, c)
				}
				if onFree[idx] {
					return chk, fmt.Errorf("superblock %d on both free and partial lists", idx)
				}
				if cls := r.Load(h.lay.descOff(idx) + dOffClass); cls != uint64(c) {
					return chk, fmt.Errorf("superblock %d has class %d but is on partial list %d", idx, cls, c)
				}
				onPartial[idx] = c
				chk.PartialLens[c]++
				next := r.Load(h.lay.descOff(idx) + dOffNextPartial)
				if next == 0 {
					break
				}
				idx = uint32(next - 1)
			}
		}
	}

	for i := uint32(0); i < n; i++ {
		d := h.lay.descOff(i)
		cls := r.Load(d + dOffClass)
		bs := r.Load(d + dOffBlockSize)
		if cls == 0 || cls == contClass {
			if cls == 0 && bs > 0 {
				// Allocated large run head.
				chk.AllocatedBlks++
				i += uint32(r.Load(d+dOffNumSB)) - 1
			}
			continue
		}
		if cls > sizeclass.NumClasses {
			return chk, fmt.Errorf("superblock %d has invalid class %d", i, cls)
		}
		if bs != sizeclass.ClassToSize(int(cls)) {
			return chk, fmt.Errorf("superblock %d class %d has block size %d", i, cls, bs)
		}
		total := uint32(SuperblockBytes / bs)
		state, avail, count := unpackAnchor(r.Load(d + dOffAnchor))
		if count > total {
			return chk, fmt.Errorf("superblock %d count %d exceeds capacity %d", i, count, total)
		}
		switch state {
		case stateFull:
			if count != 0 {
				return chk, fmt.Errorf("superblock %d FULL with count %d", i, count)
			}
		case stateEmpty:
			if count != total {
				return chk, fmt.Errorf("superblock %d EMPTY with count %d/%d", i, count, total)
			}
		}
		// Walk the chain: exactly count distinct in-range entries.
		seen := make(map[uint32]bool, count)
		bi := avail
		for k := uint32(0); k < count; k++ {
			if bi >= total {
				return chk, fmt.Errorf("superblock %d chain leaves bounds at %d", i, bi)
			}
			if seen[bi] {
				return chk, fmt.Errorf("superblock %d chain revisits block %d", i, bi)
			}
			seen[bi] = true
			if k+1 < count {
				next := r.Load(h.lay.sbOff(i) + uint64(bi)*bs)
				if next == 0 {
					return chk, fmt.Errorf("superblock %d chain ends early at %d/%d", i, k+1, count)
				}
				bi = uint32(next - 1)
			}
		}
		chk.FreeBlocks += uint64(count)
		chk.AllocatedBlks += uint64(total - count)
	}
	return chk, nil
}
