package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// rootKV is the persistent-root slot cluster.Open keeps the store in.
const rootKV = 0

// buckets is ralloc-serve's default hash-bucket count.
const buckets = 65536

// rallocConfig is every workload's heap: a crash-simulating region with the
// figure benchmarks' NVM cost model (bench.DefaultNVM); a crash keeps only
// flushed lines (EvictProb 0).
func rallocConfig(p params) ralloc.Config {
	nvm := bench.DefaultNVM
	nvm.Mode = pmem.ModeCrashSim
	return ralloc.Config{SBRegion: p.RegionMB << 20, Pmem: nvm}
}

// openLoaded opens a one-shard volatile cluster and loads version 0 of every
// record directly into its store.
func openLoaded(p params, ks *keyspace) (*cluster.Cluster, error) {
	clus, err := cluster.Open("", cluster.Config{Shards: 1, Ralloc: rallocConfig(p), Buckets: buckets})
	if err != nil {
		return nil, err
	}
	sh := clus.Shards[0]
	h := sh.Alloc.NewHandle()
	var v [valueSize]byte
	for rec, key := range ks.keys {
		ks.vers[rec].Store(0)
		fillValue(v[:], ks.seed, uint32(rec), 0)
		if !sh.Store.SetBytes(h, key, v[:]) {
			return nil, fmt.Errorf("load: heap exhausted at record %d", rec)
		}
	}
	return clus, nil
}

// freeMemory returns the previous set-up's heap to the OS before the next
// one, so repeated set-ups do not stack up in the peak RSS.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// snapshot takes an online snapshot of region the way SAVE does —
// BeginOnlineSave streams the image to path's temporary file (path + ".tmp")
// while writers run, fence runs Cut with writers stopped — and discards it
// instead of publishing it.
//
// Without stats, the temporary file is a symbolic link to the null device,
// so the image never enters the page cache: the snapshot is the region copy,
// the delta rounds and the cut. On a VM that hands freed memory back to its
// host, writing the image to a file costs host page faults whenever the host
// has taken back the page cache the previous image freed, which depends on
// how long ago that was, not on the snapshot code. dropMs is the time
// Abort takes to discard the image.
//
// With stats, the snapshot's line counts are read by publishing it
// emptied: the image goes to a real file, which is truncated after the cut,
// so Publish's fsync has no data to write, and the empty image is removed.
func snapshot(region *pmem.Region, path string, fence func(cut func() error) error, stats bool) (st pmem.SnapshotStats, dropMs float64, err error) {
	if !stats {
		if err := os.Symlink(os.DevNull, path+".tmp"); err != nil {
			return st, 0, err
		}
	}
	save, err := region.BeginOnlineSave(path) // removes the link if it fails
	if err != nil {
		return st, 0, err
	}
	defer save.Abort()
	if err := fence(save.Cut); err != nil {
		return st, 0, err
	}
	t0 := time.Now()
	if !stats {
		save.Abort()
		return pmem.SnapshotStats{Lines: region.Size() / pmem.LineBytes}, float64(time.Since(t0)) / 1e6, nil
	}
	if err := os.Truncate(path+".tmp", 0); err != nil {
		return st, 0, err
	}
	if st, err = save.Publish(); err != nil {
		return st, 0, err
	}
	err = os.Remove(path)
	return st, float64(time.Since(t0)) / 1e6, err
}

// recovered is one crash → attached-store round.
type recovered struct {
	heap  *ralloc.Heap
	store *kvstore.Store
	// ns since the run started: attach begins, Recover begins, Recover
	// ends, the store is attached.
	t0, tRec, tSweepEnd, tDone int64
	attachEnd                  int64
	stats                      ralloc.RecoveryStats
	flushes, linesBack         uint64
}

func (r recovered) ms() float64 { return float64(r.tDone-r.t0) / 1e6 }

// recoverRegion restarts on a crashed region the way cluster.Open does
// after a crash: ralloc.Attach, filter registration, Recover, then
// kvstore.Attach. Its spans go to log.
func recoverRegion(region *pmem.Region, cfg ralloc.Config, clk clock, log *spanLog) (recovered, error) {
	var r recovered
	st0 := region.Stats()
	r.t0 = clk.now()
	heap, dirty, err := ralloc.Attach(region, cfg)
	if err != nil {
		return r, fmt.Errorf("attach after crash: %w", err)
	}
	if !dirty {
		return r, fmt.Errorf("attach after crash: heap reads clean")
	}
	r.attachEnd = clk.now()
	a := heap.AsAllocator()
	root := heap.GetRoot(rootKV, nil)
	if root == 0 {
		return r, fmt.Errorf("attach after crash: store root lost")
	}
	heap.GetRoot(rootKV, kvstore.Filter(a, root))
	r.tRec = clk.now()
	r.stats, err = heap.Recover()
	if err != nil {
		return r, fmt.Errorf("recover: %w", err)
	}
	r.tSweepEnd = clk.now()
	r.store = kvstore.Attach(a, root)
	r.tDone = clk.now()
	st1 := region.Stats()
	r.heap, r.flushes, r.linesBack = heap, st1.Flushes-st0.Flushes, st1.LinesBack-st0.LinesBack

	id := nextSpanID()
	rec := nextSpanID()
	trace := r.tRec + int64(r.stats.TraceTime)
	log.add(span{name: "recovery", id: id, start: r.t0, end: r.tDone})
	log.add(span{name: "ralloc.attach", id: nextSpanID(), parent: id, start: r.t0, end: r.attachEnd})
	log.add(span{name: "ralloc.recover", id: rec, parent: id, start: r.tRec, end: r.tSweepEnd})
	log.add(span{name: "ralloc.trace", id: nextSpanID(), parent: rec, start: r.tRec, end: trace})
	log.add(span{name: "ralloc.sweep", id: nextSpanID(), parent: rec, start: trace, end: trace + int64(r.stats.SweepTime)})
	log.add(span{name: "kvstore.attach", id: nextSpanID(), parent: id, start: r.tSweepEnd, end: r.tDone})
	return r, nil
}

// recoveryMetrics reports the medians of rounds.
func recoveryMetrics(rep *report, rounds []recovered) {
	var total, attach, trace, sweep, kv, work, units, flushes, back, useful []float64
	for _, r := range rounds {
		total = append(total, r.ms())
		attach = append(attach, float64(r.attachEnd-r.t0)/1e6)
		trace = append(trace, float64(r.stats.TraceTime)/1e6)
		sweep = append(sweep, float64(r.stats.SweepTime)/1e6)
		kv = append(kv, float64(r.tDone-r.tSweepEnd)/1e6)
		work = append(work, float64(r.stats.TraceWork))
		units = append(units, float64(r.stats.SweepUnits))
		flushes = append(flushes, float64(r.flushes))
		back = append(back, float64(r.linesBack))
		useful = append(useful, ratio(float64(r.linesBack), float64(r.flushes)))
	}
	n := len(rounds)
	rep.timing("recovery_ms", median(total), n)
	rep.timing("ralloc.attach_ms", median(attach), n)
	rep.timing("ralloc.trace_ms", median(trace), n)
	rep.timing("ralloc.sweep_ms", median(sweep), n)
	rep.timing("kvstore.attach_ms", median(kv), n)
	rep.set("ralloc.trace_work", median(work))
	rep.set("ralloc.sweep_units", median(units))
	rep.set("pmem.recovery_flushes", median(flushes))
	rep.set("pmem.recovery_lines_back", median(back))
	rep.set("pmem.recovery_writeback_useful", median(useful))
}

// replayStore runs ops directly on the store, first every GET and then every
// SET, timing each call and counting Go allocations per pass: the kvstore
// layer (with dstruct beneath) without the server. Writers must be stopped.
func replayStore(st *kvstore.Store, h alloc.Handle, ks *keyspace, ops []op, clk clock, log *spanLog, rep *report) {
	gets, sets := make([]int64, 0, len(ops)), make([]int64, 0, len(ops))
	var v [valueSize]byte
	var m0, m1, m2 runtime.MemStats
	var attempted, failed int64
	runtime.ReadMemStats(&m0)
	for i, o := range ops {
		if o.update() {
			continue
		}
		rec := o.rec()
		t0 := clk.now()
		got, ok, err := st.GetBytes(ks.keys[rec])
		t1 := clk.now()
		gets = append(gets, t1-t0)
		if i%traceStride == 0 {
			log.add(span{name: "kvstore.get", id: nextSpanID(), start: t0, end: t1})
		}
		attempted++
		if err != nil || !ks.checkGet(rec, got, ok, true, ks.vers[rec].Load()) {
			failed++
		}
	}
	runtime.ReadMemStats(&m1)
	for i, o := range ops {
		if !o.update() {
			continue
		}
		rec := o.rec()
		ver := ks.vers[rec].Load() + 1
		fillValue(v[:], ks.seed, rec, ver)
		ks.vers[rec].Store(ver)
		t0 := clk.now()
		ok := st.SetBytes(h, ks.keys[rec], v[:])
		t1 := clk.now()
		sets = append(sets, t1-t0)
		if i%traceStride == 0 {
			log.add(span{name: "kvstore.set", id: nextSpanID(), start: t0, end: t1})
		}
		attempted++
		if !ok {
			failed++
		}
	}
	runtime.ReadMemStats(&m2)
	rep.count("replay", attempted, failed)
	rep.timing("kvstore.get_ns", median(gets), len(gets))
	rep.timing("kvstore.set_ns", median(sets), len(sets))
	rep.set("kvstore.get_go_allocs", ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(gets))))
	rep.set("kvstore.set_go_allocs", ratio(float64(m2.Mallocs-m1.Mallocs), float64(len(sets))))
}

// refills sums the heap's cache refills over its shards.
func refills(h *ralloc.Heap) uint64 {
	var n uint64
	for _, s := range h.ShardStats() {
		n += s.Refills
	}
	return n
}

// pmemMetrics reports the flush and fence cost of ops operations between
// two region snapshots.
func pmemMetrics(rep *report, st0, st1 pmem.Stats, ops float64) {
	flushes, fences := float64(st1.Flushes-st0.Flushes), float64(st1.Fences-st0.Fences)
	rep.set("pmem.flushes_per_op", ratio(flushes, ops))
	rep.set("pmem.fences_per_op", ratio(fences, ops))
	nvm := bench.DefaultNVM
	rep.set("pmem.model_ns_per_op", ratio(flushes*float64(nvm.FlushLatency)+fences*float64(nvm.FenceLatency), ops))
}

// allocMetrics reports the allocator calls of ops operations.
func allocMetrics(rep *report, c allocCounts, ops float64) {
	rep.set("ralloc.mallocs_per_op", ratio(float64(c.mallocs), ops))
	rep.set("ralloc.frees_per_op", ratio(float64(c.frees), ops))
	rep.set("ralloc.malloc_ns", ratio(float64(c.mallocNs), float64(c.timedMallocs)))
	rep.set("ralloc.free_ns", ratio(float64(c.freeNs), float64(c.timedFrees)))
}

// spaceMetrics reports the heap's superblock footprint against the live
// key and value bytes.
func spaceMetrics(rep *report, h *ralloc.Heap, ks *keyspace) {
	live := float64(len(ks.keys) * (len(ks.keys[0]) + valueSize))
	rep.set("space_amp", float64(h.SBUsed())/live)
	rep.set("ralloc.sb_used_mb", float64(h.SBUsed())/(1<<20))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or the
// Go runtime's total OS memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			f := bytes.Fields(sc.Bytes())
			if len(f) >= 2 && string(f[0]) == "VmHWM:" {
				if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
