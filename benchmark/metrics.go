package main

import (
	"fmt"
	"slices"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics; every workload reports all of
// them (see README.md for what each means on each workload).
var endToEnd = []metricDef{
	{"throughput_kops", "Kops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"save_ms", "ms"},
	{"recovery_ms", "ms"},
	{"space_amp", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	{"server.exec_get_ns_p50", "ns"},
	{"server.exec_set_ns_p50", "ns"},
	{"server.wire_ns_per_op", "ns"},
	{"server.go_allocs_per_op", "allocs/op"},
	{"server.save_fence_us", "us"},
	{"kvstore.get_ns", "ns"},
	{"kvstore.set_ns", "ns"},
	{"kvstore.get_go_allocs", "allocs/op"},
	{"kvstore.set_go_allocs", "allocs/op"},
	{"kvstore.attach_ms", "ms"},
	{"ralloc.mallocs_per_op", "count/op"},
	{"ralloc.frees_per_op", "count/op"},
	{"ralloc.malloc_ns", "ns"},
	{"ralloc.free_ns", "ns"},
	{"ralloc.refills_per_kop", "count/kop"},
	{"ralloc.attach_ms", "ms"},
	{"ralloc.trace_ms", "ms"},
	{"ralloc.sweep_ms", "ms"},
	{"ralloc.trace_work", "count"},
	{"ralloc.sweep_units", "count"},
	{"ralloc.sb_used_mb", "MB"},
	{"pmem.flushes_per_op", "count/op"},
	{"pmem.fences_per_op", "count/op"},
	{"pmem.model_ns_per_op", "ns"},
	{"pmem.recovery_flushes", "count"},
	{"pmem.recovery_lines_back", "count"},
	{"pmem.recovery_writeback_useful", "ratio"},
	{"pmem.save_lines", "count"},
	{"pmem.save_lines_recopied", "count"},
	{"trace.traced_kops", "Kops/s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metric values, failure counts and the sample
// count behind each timing.
type report struct {
	values    map[string]float64
	samples   map[string]int
	series    map[string][]float64 // per-window figures behind a median
	failures  map[string]int64     // failed checks by kind
	attempted int64
	failed    int64
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, series: map[string][]float64{}, failures: map[string]int64{}}
}

func (r *report) set(name string, v float64)           { r.values[name] = v }
func (r *report) timing(name string, v float64, n int) { r.values[name], r.samples[name] = v, n }

// count adds checked operations of one kind and how many of them failed.
func (r *report) count(kind string, attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.failures[kind] += failed
	}
}

// result renders the metrics defs names; a name the run did not set is an
// error in the benchmark, not a zero.
func (r *report) result(defs []metricDef) (result, error) {
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return out, fmt.Errorf("benchmark: metric %s not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. Empty input gives 0.
func quantile[T int64 | uint32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(i)
	return float64(xs[i])*(1-frac) + float64(xs[i+1])*frac
}

func median[T int64 | uint32 | float64](xs []T) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is one interval of a measured phase: the operations completed in
// it and a sample of their latencies (ns).
type window struct {
	ops  int64
	secs float64
	lat  []uint32
}

// windows splits a measured phase into intervals, so that a run reports its
// median interval: a burst of outside load moves a few intervals, not the
// run's figure.
type windows []window

// at returns window i, growing the set as needed.
func (ws *windows) at(i int) *window {
	for len(*ws) <= i {
		*ws = append(*ws, window{})
	}
	return &(*ws)[i]
}

// merge adds other's operations and samples into ws, window by window.
func (ws *windows) merge(other windows) {
	for i, w := range other {
		m := ws.at(i)
		m.ops += w.ops
		m.lat = append(m.lat, w.lat...)
	}
}

// report sets throughput_kops, latency_p50_us and latency_p99_us to the
// medians over the windows.
func (ws windows) report(rep *report) {
	var kops, p50, p99 []float64
	samples := 0
	for _, w := range ws {
		kops = append(kops, ratio(float64(w.ops), w.secs)/1e3)
		p50 = append(p50, quantile(w.lat, 0.50)/1e3)
		p99 = append(p99, quantile(w.lat, 0.99)/1e3)
		samples += len(w.lat)
	}
	rep.timing("throughput_kops", median(kops), len(ws))
	rep.series["window_kops"], rep.series["window_p50_us"] = kops, p50
	rep.timing("latency_p50_us", median(p50), samples)
	rep.timing("latency_p99_us", median(p99), samples)
}
