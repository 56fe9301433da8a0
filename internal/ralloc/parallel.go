package ralloc

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pptr"
	"repro/internal/sizeclass"
)

// Parallel recovery implements the paper's stated future work (§6.4):
// "it would be straightforward ... to parallelize Step 5 across persistent
// roots and Steps 6–9 across superblocks; we leave this to future work."
//
// Tracing (step 5) uses a pool of workers, each with its own GC context
// sharing one atomically-marked visited bitmap. Work is balanced through a
// shared pool: a worker whose local stack grows past a threshold donates
// half of it; a worker that runs dry blocks on the pool. Termination is
// detected when every worker is waiting and the pool is empty, so tracing
// parallelizes *within* a single structure, not just across roots — a
// single deep tree still fans out once its branches enter the pool.
//
// Sweeping (steps 6–9) first partitions the descriptor range into work
// units (a large run is one unit) with a cheap sequential scan, then
// processes units concurrently; the list pushes are the same lock-free
// CASes used during normal operation.

type traceItem struct {
	off uint64
	f   Filter
}

// tracePool is the shared work pool for parallel tracing.
type tracePool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []traceItem
	waiting int
	workers int
	done    bool
}

func newTracePool(workers int) *tracePool {
	p := &tracePool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// donate moves items into the pool and wakes idle workers.
func (p *tracePool) donate(items []traceItem) {
	p.mu.Lock()
	p.items = append(p.items, items...)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// take blocks until work is available or all workers are idle (ok=false).
func (p *tracePool) take(max int) ([]traceItem, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.items) > 0 {
			n := max
			if n > len(p.items) {
				n = len(p.items)
			}
			batch := make([]traceItem, n)
			copy(batch, p.items[len(p.items)-n:])
			p.items = p.items[:len(p.items)-n]
			return batch, true
		}
		if p.done {
			return nil, false
		}
		p.waiting++
		if p.waiting == p.workers {
			// Everyone is idle and the pool is empty: trace done.
			p.done = true
			p.cond.Broadcast()
			p.waiting--
			return nil, false
		}
		p.cond.Wait()
		p.waiting--
	}
}

// donateThreshold is the local-stack size beyond which a worker shares half
// of its pending work.
const donateThreshold = 256

// traceWorker drains work until global termination, returning its local
// reachability tallies.
func traceWorker(g *GC, p *tracePool) {
	for {
		g.drain(p)
		batch, ok := p.take(donateThreshold / 4)
		if !ok {
			return
		}
		for _, it := range batch {
			g.pendOff = append(g.pendOff, it.off)
			g.pendF = append(g.pendF, it.f)
		}
	}
}

// donateHalf moves the bottom half of the local stack to the pool.
func (g *GC) donateHalf(p *tracePool) {
	half := len(g.pendOff) / 2
	batch := make([]traceItem, half)
	for i := 0; i < half; i++ {
		batch[i] = traceItem{g.pendOff[i], g.pendF[i]}
	}
	copy(g.pendOff, g.pendOff[half:])
	copy(g.pendF, g.pendF[half:])
	g.pendOff = g.pendOff[:len(g.pendOff)-half]
	g.pendF = g.pendF[:len(g.pendF)-half]
	p.donate(batch)
}

// RecoverParallel performs the same recovery as Recover using the given
// number of worker goroutines for both the trace and the sweep. Each worker
// drains its local stack with Recover's batched drain, donating surplus to
// the pool; the RecoveryStats tallies and work counters equal Recover's.
// workers<=1 falls back to the sequential path.
func (h *Heap) RecoverParallel(workers int) (RecoveryStats, error) {
	if workers <= 1 {
		return h.Recover()
	}
	start := time.Now()
	h.dropHandles()

	r := h.region

	// Step 5, parallel: one GC per worker over a shared bitmap.
	used := h.SBUsed()
	shared := make([]uint64, (used/8+63)/64)
	gcs := make([]*GC, workers)
	for i := range gcs {
		gcs[i] = &GC{h: h, used: used, visited: shared, shared: true}
	}
	// Mark and tally the root targets up front (Step 5's seeds), then hand
	// them to the pool; workers only ever receive already-marked blocks,
	// so every block is scanned exactly once.
	pool := newTracePool(workers)
	seq := &GC{h: h, used: used, visited: shared, shared: true}
	var seeds []traceItem
	for i := 0; i < NumRoots; i++ {
		slot := rootOff(i)
		target, ok := pptr.Unpack(slot, r.Load(slot))
		if !ok {
			continue
		}
		seq.traceWork++
		size, valid := seq.blockInfo(target)
		if !valid || !seq.mark(target) {
			continue
		}
		seq.reachableBlocks++
		seq.reachableBytes += size
		h.mu.Lock()
		f := h.filters[i]
		h.mu.Unlock()
		seeds = append(seeds, traceItem{target, f})
	}
	pool.donate(seeds)
	var wg sync.WaitGroup
	for _, g := range gcs {
		wg.Add(1)
		go func(g *GC) {
			defer wg.Done()
			traceWorker(g, pool)
		}(g)
	}
	wg.Wait()
	traceDone := time.Now()

	// Step 3: fresh global lists. Done on the sweep side of the timestamp,
	// like the sequential path (rebuildFromTrace), so the TraceTime /
	// SweepTime decomposition agrees between the two.
	h.resetLists()

	stats := RecoveryStats{}
	for _, g := range append(gcs, seq) {
		stats.ReachableBlocks += g.reachableBlocks
		stats.ReachableBytes += g.reachableBytes
		stats.TraceWork += g.traceWork
	}

	// Steps 6–9, parallel: partition into units, then fan out.
	master := &GC{h: h, used: used, visited: shared, shared: true}
	type unit struct {
		first uint32
		count uint32 // >1 only for large runs being freed
		kind  int    // 0 small/other, 1 large-keep, 2 large-free
	}
	n := h.usedDescs()
	var units []unit
	for i := uint32(0); i < n; {
		d := h.lay.descOff(i)
		cls := r.Load(d + dOffClass)
		bs := r.Load(d + dOffBlockSize)
		numSB := r.Load(d + dOffNumSB)
		if cls == 0 && bs > 0 && numSB > 0 {
			k := uint32(numSB)
			if k > n-i {
				k = n - i
			}
			if master.marked(h.lay.sbOff(i)) && uint32(numSB) == k {
				units = append(units, unit{i, k, 1})
			} else {
				units = append(units, unit{i, k, 2})
			}
			i += k
			continue
		}
		units = append(units, unit{i, 1, 0})
		i++
	}

	var next atomic.Uint32
	var freeSBs, partials, fulls, runs atomic.Uint64
	var swg sync.WaitGroup
	for w := 0; w < workers; w++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			g := &GC{h: h, used: used, visited: shared, shared: true}
			for {
				u := next.Add(1) - 1
				if int(u) >= len(units) {
					return
				}
				un := units[u]
				switch un.kind {
				case 1:
					r.Store(h.lay.descOff(un.first)+dOffAnchor,
						packAnchor(stateFull, anchorAvailNone, 0))
					runs.Add(1)
				case 2:
					for j := uint32(0); j < un.count; j++ {
						h.clearAndRetire(un.first + j)
						freeSBs.Add(1)
					}
				default:
					i := un.first
					d := h.lay.descOff(i)
					cls := r.Load(d + dOffClass)
					bs := r.Load(d + dOffBlockSize)
					if cls >= 1 && cls <= sizeclass.NumClasses &&
						bs == sizeclass.ClassToSize(int(cls)) {
						var local RecoveryStats
						h.sweepSmall(g, i, int(cls), bs, &local)
						freeSBs.Add(local.FreeSuperblocks)
						partials.Add(local.PartialSBs)
						fulls.Add(local.FullSBs)
					} else {
						h.clearAndRetire(i)
						freeSBs.Add(1)
					}
				}
			}
		}()
	}
	swg.Wait()
	stats.FreeSuperblocks = freeSBs.Load()
	stats.PartialSBs = partials.Load()
	stats.FullSBs = fulls.Load()
	stats.LargeRuns = runs.Load()
	stats.SweepUnits = uint64(len(units))

	h.fence() // orders clearAndRetire's flushes, as in rebuildFromTrace
	stats.TraceTime = traceDone.Sub(start)
	stats.SweepTime = time.Since(traceDone)
	stats.Duration = time.Since(start)
	return stats, nil
}
