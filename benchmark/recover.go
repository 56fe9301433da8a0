package main

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// crashRun is the shared state of one crash-recover run.
type crashRun struct {
	cfg   runConfig
	p     params
	ks    *keyspace
	clk   clock
	ops   [][]op
	pos   []int // each worker's position in its op stream, kept across cycles
	timed atomic.Bool
	log   *spanLog

	// Totals over the measured churns: one window per churn (untraced
	// runs); operations, seconds, allocator calls, flushes, fences and
	// refills (traced runs).
	win       windows
	done      int64
	secs      float64
	allocs    allocCounts
	pm        pmem.Stats // summed deltas of Flushes and Fences
	refills   uint64
	attempted int64
	failed    int64
}

// churn runs n YCSB-A operations split over the workers, each with its own
// handle from a, directly on the store. A worker's GET of a record it owns
// must return the exact last version; other GETs any complete version up to
// the last one sent.
// keepLat keeps every operation's latency in the returned window.
func (r *crashRun) churn(st *kvstore.Store, a alloc.Allocator, n int, keepLat bool) window {
	workers := r.p.Clients
	type out struct {
		lat               []uint32
		attempted, failed int64
	}
	outs := make([]out, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			if keepLat {
				o.lat = make([]uint32, 0, n/workers)
			}
			h := a.NewHandle()
			ops := r.ops[w]
			var v [valueSize]byte
			for i := 0; i < n/workers; i++ {
				op := ops[r.pos[w]]
				if r.pos[w]++; r.pos[w] == len(ops) {
					r.pos[w] = 0
				}
				rec := op.rec()
				var s, e int64
				if op.update() {
					// The version is published before the write, so a
					// concurrent reader never sees a value newer than it.
					ver := r.ks.vers[rec].Load() + 1
					fillValue(v[:], r.ks.seed, rec, ver)
					r.ks.vers[rec].Store(ver)
					s = r.clk.now()
					ok := st.SetBytes(h, r.ks.keys[rec], v[:])
					e = r.clk.now()
					if !ok {
						o.failed++
					}
				} else {
					want := r.ks.vers[rec].Load()
					s = r.clk.now()
					got, found, err := st.GetBytes(r.ks.keys[rec])
					e = r.clk.now()
					if err != nil || !r.ks.checkGet(rec, got, found, int(rec)%workers == w, want) {
						o.failed++
					}
				}
				o.attempted++
				if o.lat != nil {
					o.lat = append(o.lat, uint32(e-s))
				}
			}
		}(w)
	}
	wg.Wait()
	win := window{ops: int64(n / workers * workers), secs: time.Since(t0).Seconds()}
	for _, o := range outs {
		r.attempted += o.attempted
		r.failed += o.failed
		win.lat = append(win.lat, o.lat...)
	}
	return win
}

// measuredChurn is one cycle's measured churn. A trace run times the
// allocator calls and counts allocator, refill and flush work over it.
func (r *crashRun) measuredChurn(heap *ralloc.Heap, st *kvstore.Store) {
	if !r.cfg.trace {
		r.win = append(r.win, r.churn(st, heap.AsAllocator(), r.p.ChurnOps, true))
		return
	}
	region := heap.Region()
	ca := &countingAlloc{Allocator: heap.AsAllocator(), timed: &r.timed}
	s0, rf0 := region.Stats(), refills(heap)
	r.timed.Store(true)
	t0 := r.clk.now()
	w := r.churn(st, ca, r.p.ChurnOps, false)
	t1 := r.clk.now()
	r.timed.Store(false)
	s1 := region.Stats()
	r.done, r.secs = r.done+w.ops, r.secs+w.secs
	r.allocs = r.allocs.add(ca.counts())
	r.pm.Flushes += s1.Flushes - s0.Flushes
	r.pm.Fences += s1.Fences - s0.Fences
	r.refills += refills(heap) - rf0
	r.log.add(span{name: "churn", id: nextSpanID(), start: t0, end: t1})
}

// runCrashRecover loads the store, then repeats cycles of churn, crash,
// recovery and a check of every record's last acknowledged value, with an
// online snapshot of each recovered heap, until the run's seconds are up.
func runCrashRecover(cfg runConfig, work string, rep *report) ([]span, error) {
	p := cfg.p
	r := &crashRun{cfg: cfg, p: p, ks: newKeyspace(cfg.seed, p.Records), clk: clock{time.Now()},
		pos: make([]int, p.Clients), log: newSpanLog(0)}
	if cfg.trace {
		r.log = newSpanLog(spanCap)
	}
	for w := 0; w < p.Clients; w++ {
		r.ops = append(r.ops, genOps(cfg.seed, w, p.Clients, p.Records, p.ReadFrac, p.OpsRing))
	}

	// Set-up: heap open, load, one churn and a crash; several times, the
	// last one is recovered.
	var region *pmem.Region
	var setups []float64
	for i := 0; i < p.Setups; i++ {
		region = nil
		freeMemory()
		clear(r.pos)
		t0 := time.Now()
		clus, err := openLoaded(p, r.ks)
		if err != nil {
			return nil, err
		}
		sh := clus.Shards[0]
		r.churn(sh.Store, sh.Alloc, p.ChurnOps, false)
		region = sh.Heap.Region()
		if err := region.Crash(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.timing("setup_s", median(setups), len(setups))
	rep.series["setup_s"] = setups

	img := filepath.Join(work, "snapshot.img")
	var rounds []recovered
	var saves, drops, lines, recopied []float64
	var heap *ralloc.Heap
	var store *kvstore.Store
	start := time.Now()
	for {
		rc, err := recoverRegion(region, rallocConfig(p), r.clk, r.log)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rc)
		heap, store = rc.heap, rc.store
		attempted, failed := r.ks.verifyStore(store.GetBytes, store.Len)
		rep.count("recovered", attempted, failed)

		// Snapshot the recovered heap online, as a restarted server's first
		// SAVE would; no writers run, so the fence is the cut alone.
		t0 := r.clk.now()
		st, drop, err := snapshot(region, img, func(cut func() error) error { return cut() }, cfg.trace)
		if err != nil {
			return nil, err
		}
		t1 := r.clk.now()
		saves, drops = append(saves, float64(t1-t0)/1e6), append(drops, drop)
		lines, recopied = append(lines, float64(st.Lines)), append(recopied, float64(st.Recopied))
		r.log.add(span{name: "pmem.snapshot", id: nextSpanID(), start: t0, end: t1})

		if len(rounds) >= p.Recovers && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		r.measuredChurn(heap, store)
		t0 = r.clk.now()
		if err := region.Crash(); err != nil {
			return nil, err
		}
		r.log.add(span{name: "pmem.crash", id: nextSpanID(), start: t0, end: r.clk.now()})
	}
	rep.count("churn", r.attempted, r.failed)
	rep.timing("save_ms", median(saves), len(saves))
	rep.series["save_ms"], rep.series["save_drop_ms"] = saves, drops
	recoveryMetrics(rep, rounds)
	spaceMetrics(rep, heap, r.ks)
	if !cfg.trace {
		r.win.report(rep)
		return nil, nil
	}
	// No server runs in this workload: its layer metrics read 0.
	for _, name := range []string{"server.exec_get_ns_p50", "server.exec_set_ns_p50", "server.wire_ns_per_op",
		"server.go_allocs_per_op", "server.save_fence_us"} {
		rep.set(name, 0)
	}
	rep.set("pmem.save_lines", mean(lines))
	rep.set("pmem.save_lines_recopied", mean(recopied))
	ops := float64(r.done)
	allocMetrics(rep, r.allocs, ops)
	pmemMetrics(rep, pmem.Stats{}, r.pm, ops)
	rep.set("ralloc.refills_per_kop", ratio(float64(r.refills), ops/1e3))
	rep.set("trace.traced_kops", ratio(ops, r.secs)/1e3)
	replayStore(store, heap.NewHandle(), r.ks, r.ops[0], r.clk, r.log, rep)
	return r.log.spans, nil
}
