package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/server"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one request share req; start and end are nanoseconds since the
// run started.
type span struct {
	name       string
	id, parent uint64
	req        uint64
	start, end int64
}

// Span ids: a request's client span is req<<2|1 and the server's execution
// span under it req<<2|2; every other span takes the next id from spanSeq.
func reqID(conn int, seq uint64) uint64 { return uint64(conn+1)<<40 | seq }
func clientSpanID(req uint64) uint64    { return req<<2 | 1 }
func execSpanID(req uint64) uint64      { return req<<2 | 2 }

var spanSeq atomic.Uint64

func nextSpanID() uint64 { return 1<<62 | spanSeq.Add(1) }

// spanLog is an append-only, capacity-bounded span buffer owned by one
// goroutine; spans past the capacity are dropped, so tracing never grows
// memory during the measured phase.
type spanLog struct{ spans []span }

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(s span) {
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, s)
	}
}

// clock is the run's monotonic time base.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// traceStride samples one request in traceStride for spans: enough samples
// for stable percentiles, little enough memory for a long run.
const traceStride = 32

// spanCap bounds each span buffer.
const spanCap = 1 << 18

// execTracer is a server.Middleware that records a span around every
// sampled command handler. Connections are numbered in the order their
// first command arrives; the benchmark's clients send a PING one at a time
// after connecting, so connection i is client i, and the n-th command on a
// connection is the client's n-th request.
type execTracer struct {
	clk   clock
	on    atomic.Bool
	mu    sync.Mutex
	byCtx sync.Map // *server.Ctx → *connTrace
	conns []*connTrace
}

type connTrace struct {
	idx int
	seq uint64
	log *spanLog
}

func (t *execTracer) conn(ctx *server.Ctx) *connTrace {
	if ct, ok := t.byCtx.Load(ctx); ok {
		return ct.(*connTrace)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ct := &connTrace{idx: len(t.conns), log: newSpanLog(spanCap)}
	t.conns = append(t.conns, ct)
	t.byCtx.Store(ctx, ct)
	return ct
}

func (t *execTracer) middleware(c *server.Command, h server.Handler) server.Handler {
	name := "server.exec." + c.Name
	return func(ctx *server.Ctx) {
		ct := t.conn(ctx)
		seq := ct.seq
		ct.seq++
		if !t.on.Load() || seq%traceStride != 0 {
			h(ctx)
			return
		}
		start := t.clk.now()
		h(ctx)
		req := reqID(ct.idx, seq)
		ct.log.add(span{name: name, id: execSpanID(req), parent: clientSpanID(req), req: req, start: start, end: t.clk.now()})
	}
}

// spans returns every recorded execution span; call only after the server
// has shut down (its connection goroutines own the buffers until then).
func (t *execTracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, ct := range t.conns {
		out = append(out, ct.log.spans...)
	}
	return out
}

// countingAlloc wraps the allocator handed to the server (or to the churn
// workers) so every handle it mints counts its mallocs and frees, and times
// them while timed is set.
type countingAlloc struct {
	alloc.Allocator
	timed   *atomic.Bool
	mu      sync.Mutex
	handles []*countingHandle
}

type countingHandle struct {
	h                      alloc.Handle
	timed                  *atomic.Bool
	mallocs, frees         atomic.Uint64
	timedMallocs, mallocNs atomic.Uint64
	timedFrees, freeNs     atomic.Uint64
}

func (a *countingAlloc) NewHandle() alloc.Handle {
	h := &countingHandle{h: a.Allocator.NewHandle(), timed: a.timed}
	a.mu.Lock()
	a.handles = append(a.handles, h)
	a.mu.Unlock()
	return h
}

func (h *countingHandle) Malloc(size uint64) uint64 {
	h.mallocs.Add(1)
	if !h.timed.Load() {
		return h.h.Malloc(size)
	}
	t0 := time.Now()
	off := h.h.Malloc(size)
	h.mallocNs.Add(uint64(time.Since(t0)))
	h.timedMallocs.Add(1)
	return off
}

func (h *countingHandle) Free(off uint64) {
	h.frees.Add(1)
	if !h.timed.Load() {
		h.h.Free(off)
		return
	}
	t0 := time.Now()
	h.h.Free(off)
	h.freeNs.Add(uint64(time.Since(t0)))
	h.timedFrees.Add(1)
}

// allocCounts is a snapshot of a countingAlloc's totals.
type allocCounts struct {
	mallocs, frees, timedMallocs, mallocNs, timedFrees, freeNs uint64
}

func (a *countingAlloc) counts() allocCounts {
	a.mu.Lock()
	defer a.mu.Unlock()
	var c allocCounts
	for _, h := range a.handles {
		c.mallocs += h.mallocs.Load()
		c.frees += h.frees.Load()
		c.timedMallocs += h.timedMallocs.Load()
		c.mallocNs += h.mallocNs.Load()
		c.timedFrees += h.timedFrees.Load()
		c.freeNs += h.freeNs.Load()
	}
	return c
}

func (c allocCounts) add(d allocCounts) allocCounts {
	return allocCounts{c.mallocs + d.mallocs, c.frees + d.frees, c.timedMallocs + d.timedMallocs,
		c.mallocNs + d.mallocNs, c.timedFrees + d.timedFrees, c.freeNs + d.freeNs}
}

func (c allocCounts) sub(d allocCounts) allocCounts {
	return allocCounts{c.mallocs - d.mallocs, c.frees - d.frees, c.timedMallocs - d.timedMallocs,
		c.mallocNs - d.mallocNs, c.timedFrees - d.timedFrees, c.freeNs - d.freeNs}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		covered, reach := int64(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// writeSpans writes spans as CSV (name,id,parent,req,start_ns,end_ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,req,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
