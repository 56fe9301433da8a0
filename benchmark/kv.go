package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/pmem"
	"repro/internal/server"
)

// Phases of a kv run. Clients read the phase at the start of each pipeline
// batch and count the batch into it. A trace run traces its whole measured
// phase; its tracing overhead is its trace.traced_kops against the
// throughput_kops of the untraced run.
const (
	phaseWarm = iota
	phaseMeasure
	phaseStop
)

// kvRun is the shared state of one kv-read or kv-write run.
type kvRun struct {
	cfg   runConfig
	p     params
	ks    *keyspace
	clk   clock
	ops   [][]op
	phase atomic.Int32
	timed atomic.Bool // allocator calls are timed (traced measured phase)

	measureStart atomic.Int64 // clk time the measured phase began
	tracer       *execTracer
	log          *spanLog

	// What the measured phase counted: requests, wall seconds, Go
	// allocations, and (trace runs) flush, allocator and refill deltas.
	done     int64
	secs     float64
	goAllocs uint64
	pm       pmem.Stats
	allocs   allocCounts
	refills  uint64
	// drops is the time each SAVE spent discarding its image (ms).
	drops []float64
}

// windowNs is the interval the measured phase is split into.
const windowNs = int64(time.Second)

// latencyStride keeps the latencies of one pipeline batch in eight: enough
// samples for a stable p99, and little memory next to the heap's.
const latencyStride = 8

// persistInfo is the part of INFO persistence the benchmark reads.
type persistInfo struct {
	fenceUs, linesCopied, linesRecopied float64
}

// clientResult is what one client goroutine measured and checked.
type clientResult struct {
	ops               [phaseStop]int64
	win               windows // measured phase, by windowNs interval
	saves             []float64
	info              []persistInfo
	attempted, failed int64
	log               *spanLog
	seq               uint64 // requests sent on the connection so far
	err               error
}

// pending is one request in flight and what its reply must be.
type pending struct {
	rec   uint32
	upd   bool
	exact bool
	want  uint32
}

// loop is client id's closed loop: send a batch of Pipeline requests, read
// every reply, check it, repeat until the stop phase.
func (r *kvRun) loop(id int, c *respConn, res *clientResult) {
	ops := r.ops[id]
	pos, batches := 0, 0
	var nextSave int64 // clk time of client 0's next SAVE
	batch := make([]pending, r.p.Pipeline)
	var v [valueSize]byte
	for {
		ph := int(r.phase.Load())
		if ph == phaseStop {
			return
		}
		for i := range batch {
			o := ops[pos]
			if pos++; pos == len(ops) {
				pos = 0
			}
			rec := o.rec()
			if o.update() {
				ver := r.ks.vers[rec].Load() + 1
				fillValue(v[:], r.ks.seed, rec, ver)
				r.ks.vers[rec].Store(ver)
				c.set(r.ks.keys[rec], v[:])
				batch[i] = pending{rec: rec, upd: true}
			} else {
				batch[i] = pending{rec: rec, exact: int(rec)%r.p.Clients == id, want: r.ks.vers[rec].Load()}
				c.get(r.ks.keys[rec])
			}
		}
		t0 := r.clk.now()
		if res.err = c.flush(); res.err != nil {
			return
		}
		// Latency is kept for whole batches, one in latencyStride, so
		// every position in the pipeline is sampled alike.
		var win *window
		if ph == phaseMeasure && !r.cfg.trace {
			win = res.win.at(int((t0 - r.measureStart.Load()) / windowNs))
			win.ops += int64(len(batch))
		}
		batches++
		sampled := win != nil && batches%latencyStride == 0
		for _, pd := range batch {
			rp, err := c.read()
			if err != nil {
				res.err = err
				return
			}
			t := r.clk.now()
			res.attempted++
			if pd.upd {
				if rp.kind != '+' {
					res.failed++
				}
			} else if rp.kind != '$' || !r.ks.checkGet(pd.rec, rp.text, !rp.nil, pd.exact, pd.want) {
				res.failed++
			}
			switch {
			case sampled:
				win.lat = append(win.lat, uint32(min(t-t0, math.MaxUint32)))
			case ph == phaseMeasure && r.cfg.trace && res.seq%traceStride == 0:
				name := "client.GET"
				if pd.upd {
					name = "client.SET"
				}
				req := reqID(id, res.seq)
				res.log.add(span{name: name, id: clientSpanID(req), req: req, start: t0, end: t})
			}
			res.seq++
		}
		res.ops[ph] += int64(len(batch))
		// Client 0 checkpoints once per window, half a window in: every
		// window and every run takes the same number of SAVEs. A SAVE that
		// overruns its window skips the slots it missed rather than making
		// them up.
		if id == 0 && r.p.SavePerWindow && ph == phaseMeasure {
			if nextSave == 0 {
				nextSave = r.measureStart.Load() + windowNs/2
			}
			if t0 >= nextSave {
				if res.err = r.save(c, res, r.cfg.trace); res.err != nil {
					return
				}
				for now := r.clk.now(); nextSave <= now; {
					nextSave += windowNs
				}
			}
		}
	}
}

// save sends SAVE and, in a trace run, INFO persistence after it.
func (r *kvRun) save(c *respConn, res *clientResult, traced bool) error {
	t0 := r.clk.now()
	rp, err := c.do("SAVE")
	t1 := r.clk.now()
	if err != nil {
		return err
	}
	req := reqID(0, res.seq)
	res.seq++
	res.attempted++
	if rp.kind != '+' {
		res.failed++
		return nil
	}
	res.saves = append(res.saves, float64(t1-t0)/1e6)
	if traced {
		res.log.add(span{name: "client.SAVE", id: clientSpanID(req), req: req, start: t0, end: t1})
	}
	if !r.cfg.trace {
		return nil
	}
	rp, err = c.do("INFO", "persistence")
	res.seq++
	if err != nil {
		return err
	}
	res.attempted++
	pi, ok := parsePersistence(rp.text)
	if rp.kind != '$' || !ok {
		res.failed++
		return nil
	}
	res.info = append(res.info, pi)
	return nil
}

func parsePersistence(text []byte) (persistInfo, bool) {
	var pi persistInfo
	found := 0
	for _, line := range bytes.Split(text, []byte("\r\n")) {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(string(v), 64)
		if err != nil {
			continue
		}
		switch string(k) {
		case "last_checkpoint_fence_us":
			pi.fenceUs = f
		case "checkpoint_lines_copied":
			pi.linesCopied = f
		case "checkpoint_lines_recopied":
			pi.linesRecopied = f
		default:
			continue
		}
		found++
	}
	return pi, found == 3
}

// runKV runs kv-read or kv-write: set up, serve, drive the clients, check
// DBSIZE, then crash and recover the served heap and check every record.
func runKV(cfg runConfig, work string, rep *report) ([]span, error) {
	p := cfg.p
	r := &kvRun{cfg: cfg, p: p, ks: newKeyspace(cfg.seed, p.Records), clk: clock{time.Now()}, log: newSpanLog(0)}
	for id := 0; id < p.Clients; id++ {
		r.ops = append(r.ops, genOps(cfg.seed, id, p.Clients, p.Records, p.ReadFrac, p.OpsRing))
	}
	if cfg.trace {
		r.log = newSpanLog(2 * spanCap)
	}

	// Set up (heap open plus load) several times; the last one serves.
	var sh *cluster.Shard
	var setups []float64
	for i := 0; i < p.Setups; i++ {
		sh = nil
		freeMemory()
		t0 := time.Now()
		clus, err := openLoaded(p, r.ks)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sh = clus.Shards[0]
	}
	rep.timing("setup_s", median(setups), len(setups))
	rep.series["setup_s"] = setups

	results, err := r.serve(sh, work)
	if err != nil {
		return nil, err
	}
	var win windows
	for i := range results {
		res := &results[i]
		rep.count("requests", res.attempted, res.failed)
		win.merge(res.win)
		r.log.spans = append(r.log.spans, res.log.spans...)
	}
	res0 := &results[0]
	rep.timing("save_ms", median(res0.saves), len(res0.saves))
	rep.series["save_ms"] = res0.saves
	rep.series["save_drop_ms"] = r.drops
	if !cfg.trace {
		// Whole windows only; a phase shorter than one window is one.
		if full := int(r.secs * 1e9 / float64(windowNs)); full > 0 {
			win = win[:min(full, len(win))]
			for i := range win {
				win[i].secs = float64(windowNs) / 1e9
			}
		} else {
			all := window{secs: r.secs, ops: r.done}
			for _, w := range win {
				all.lat = append(all.lat, w.lat...)
			}
			win = windows{all}
		}
		win.report(rep)
	} else {
		r.layerMetrics(rep, res0.info)
		replayStore(sh.Store, sh.Alloc.NewHandle(), r.ks, r.ops[0], r.clk, r.log, rep)
	}

	// Crash the served heap and recover it, Recovers times over; every
	// record must come back with its last acknowledged value.
	var rounds []recovered
	region, heap := sh.Heap.Region(), sh.Heap
	for i := 0; i < p.Recovers; i++ {
		t0 := r.clk.now()
		if err := region.Crash(); err != nil {
			return nil, err
		}
		r.log.add(span{name: "pmem.crash", id: nextSpanID(), start: t0, end: r.clk.now()})
		rc, err := recoverRegion(region, rallocConfig(p), r.clk, r.log)
		if err != nil {
			return nil, err
		}
		attempted, failed := r.ks.verifyStore(rc.store.GetBytes, rc.store.Len)
		rep.count("recovered", attempted, failed)
		rounds = append(rounds, rc)
		heap = rc.heap
	}
	recoveryMetrics(rep, rounds)
	spaceMetrics(rep, heap, r.ks)
	return r.log.spans, nil
}

// serve runs the server over the shard, wired as ralloc-serve wires a
// one-shard cluster with its default expiry and slow-log settings, drives
// the clients through the phases, checks DBSIZE on the idle server and
// takes the post-run SAVEs. The server has stopped when it returns.
func (r *kvRun) serve(sh *cluster.Shard, work string) ([]clientResult, error) {
	p, region := r.p, sh.Heap.Region()
	// SAVE is an online snapshot through the pmem code ralloc-serve uses,
	// discarded instead of published (see snapshot).
	img := filepath.Join(work, "kv.img")
	be := server.ShardBackend{Alloc: sh.Alloc, Store: sh.Store,
		CheckpointOnline: func(fence func(cut func() error) error) (server.CheckpointStats, error) {
			st, drop, err := snapshot(region, img, fence, r.cfg.trace)
			r.drops = append(r.drops, drop)
			return server.CheckpointStats{Lines: st.Lines, Recopied: st.Recopied, FenceRecopied: st.FenceRecopied, Rounds: st.Rounds}, err
		}}
	srvCfg := server.Config{ActiveExpiryInterval: 100 * time.Millisecond, ActiveExpirySample: 20,
		SlowlogSlowerThan: 10 * time.Millisecond, SlowlogMaxLen: 128}
	var counting *countingAlloc
	if r.cfg.trace {
		r.tracer = &execTracer{clk: r.clk}
		srvCfg.Middleware = []server.Middleware{r.tracer.middleware}
		counting = &countingAlloc{Allocator: sh.Alloc, timed: &r.timed}
		be.Alloc = counting
	}
	srv := server.NewSharded([]server.ShardBackend{be}, srvCfg)
	sock := filepath.Join(work, "kv.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Shutdown(5 * time.Second)
		<-served
	}()

	// Clients connect one at a time and PING, which numbers the server's
	// connections in client order for the tracer.
	conns := make([]*respConn, p.Clients)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
	}()
	results := make([]clientResult, p.Clients)
	for i := range conns {
		if conns[i], err = dialResp("unix", sock); err != nil {
			return nil, err
		}
		if rp, err := conns[i].do("PING"); err != nil || rp.kind != '+' {
			return nil, fmt.Errorf("client %d: PING failed: %v", i, err)
		}
		results[i].seq = 1
		results[i].log = newSpanLog(0)
		if r.cfg.trace {
			results[i].log = newSpanLog(spanCap)
		}
	}
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.loop(i, conns[i], &results[i])
		}(i)
	}

	sleep(p.WarmupS)
	var m0, m1 runtime.MemStats
	var st0 pmem.Stats
	var ac0 allocCounts
	var rf0 uint64
	if r.cfg.trace {
		st0, ac0, rf0 = region.Stats(), counting.counts(), refills(sh.Heap)
		r.tracer.on.Store(true)
		r.timed.Store(true)
	}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r.measureStart.Store(r.clk.now())
	r.phase.Store(phaseMeasure)
	sleep(r.cfg.seconds)
	r.phase.Store(phaseStop)
	r.secs = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	r.goAllocs = m1.Mallocs - m0.Mallocs
	if r.cfg.trace {
		st1, ac1, rf1 := region.Stats(), counting.counts(), refills(sh.Heap)
		r.tracer.on.Store(false)
		r.timed.Store(false)
		r.pm = pmem.Stats{Flushes: st1.Flushes - st0.Flushes, Fences: st1.Fences - st0.Fences}
		r.allocs, r.refills = ac1.sub(ac0), rf1-rf0
	}
	wg.Wait()
	for i := range results {
		if results[i].err != nil {
			return nil, fmt.Errorf("client %d: %w", i, results[i].err)
		}
		r.done += results[i].ops[phaseMeasure]
	}

	// Idle server: DBSIZE must equal the record count; SAVE when the
	// workload takes checkpoints after the run (or took none during it).
	c0, res0 := conns[0], &results[0]
	rp, err := c0.do("DBSIZE")
	if err != nil {
		return nil, err
	}
	res0.attempted++
	if rp.kind != ':' || rp.n != int64(p.Records) {
		res0.failed++
	}
	posts := p.PostSaves
	if posts == 0 && len(res0.saves) == 0 {
		posts = 1
	}
	for i := 0; i < posts; i++ {
		if err := r.save(c0, res0, false); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// layerMetrics derives a trace run's server, allocator and pmem metrics
// from its spans, counters and INFO persistence samples.
func (r *kvRun) layerMetrics(rep *report, info []persistInfo) {
	ops := float64(r.done)
	exec := r.tracer.spans()
	var gets, sets []int64
	hasExec := make(map[uint64]bool, len(exec))
	for _, s := range exec {
		hasExec[s.parent] = true
		switch s.name {
		case "server.exec.GET":
			gets = append(gets, s.end-s.start)
		case "server.exec.SET":
			sets = append(sets, s.end-s.start)
		}
	}
	rep.timing("server.exec_get_ns_p50", median(gets), len(gets))
	rep.timing("server.exec_set_ns_p50", median(sets), len(sets))

	all := append(append([]span(nil), r.log.spans...), exec...)
	self := selfTimes(all)
	var wire []float64
	for _, s := range r.log.spans {
		if (s.name == "client.GET" || s.name == "client.SET") && hasExec[s.id] {
			wire = append(wire, float64(self[s.id]))
		}
	}
	rep.timing("server.wire_ns_per_op", mean(wire), len(wire))
	r.log.spans = all
	rep.set("server.go_allocs_per_op", ratio(float64(r.goAllocs), ops))

	var fence, lines, recopied []float64
	for i, pi := range info {
		fence = append(fence, pi.fenceUs)
		prev := persistInfo{}
		if i > 0 {
			prev = info[i-1]
		}
		lines = append(lines, pi.linesCopied-prev.linesCopied)
		recopied = append(recopied, pi.linesRecopied-prev.linesRecopied)
	}
	rep.timing("server.save_fence_us", mean(fence), len(fence))
	rep.set("pmem.save_lines", mean(lines))
	rep.set("pmem.save_lines_recopied", mean(recopied))
	pmemMetrics(rep, pmem.Stats{}, r.pm, ops)
	allocMetrics(rep, r.allocs, ops)
	rep.set("ralloc.refills_per_kop", ratio(float64(r.refills), ops/1e3))
	rep.set("trace.traced_kops", ratio(ops, r.secs)/1e3)
}

func sleep(s float64) { time.Sleep(time.Duration(s * float64(time.Second))) }
