// Command benchmark is the repository's benchmark: it drives the Ralloc heap,
// the persistent key-value store and the RESP server the way
// cmd/ralloc-serve runs them (a one-shard cluster.Open, then
// server.NewSharded with online SAVE) and prints one JSON result line.
//
//	bash benchmark/run.sh --workload kv-write --seed 1 --seconds 40 --trace 0
//
// Workloads (README.md explains why each exists):
//
//   - kv-read: YCSB-C GETs from 2 pipelined clients over a unix socket.
//   - kv-write: YCSB-A GET/SET from the same clients, and one SAVE over the
//     wire per second.
//   - crash-recover: cycles of YCSB-A churn, crash, recovery and a check of
//     every acknowledged write, with no server.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans and counters around each layer and prints the per-layer
// metrics instead. Inputs follow from --seed alone; every reply and every
// recovered record is checked, and failures are counted, not fatal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bench"
)

// params sizes one workload. The defaults are in workloads; the test runs
// the same code at small sizes.
type params struct {
	Records  int     `json:"records"`
	RegionMB uint64  `json:"region_mb"`
	ReadFrac float64 `json:"read_frac"`
	Clients  int     `json:"clients"`  // client connections (kv) or churn workers (crash-recover)
	Pipeline int     `json:"pipeline"` // requests in flight per connection (closed loop)
	// SavePerWindow has client 0 send SAVE once per measured window.
	SavePerWindow bool    `json:"save_per_window"`
	PostSaves     int     `json:"post_saves"` // SAVEs on the idle server after the measured phase
	WarmupS       float64 `json:"warmup_s"`
	Setups        int     `json:"setups"`     // set-ups per run; setup_s is their median
	Recovers      int     `json:"recoveries"` // crash-recover rounds (a minimum for crash-recover)
	ChurnOps      int     `json:"churn_ops"`  // operations per crash-recover churn phase
	OpsRing       int     `json:"ops_per_client"`
}

// workloads holds each workload's full-size parameters.
var workloads = map[string]params{
	"kv-read": {Records: 100000, RegionMB: 128, ReadFrac: 1, Clients: 2, Pipeline: 16,
		PostSaves: 5, WarmupS: 1, Setups: 5, Recovers: 3, OpsRing: 1 << 19},
	"kv-write": {Records: 100000, RegionMB: 128, ReadFrac: 0.5, Clients: 2, Pipeline: 16,
		SavePerWindow: true, WarmupS: 1, Setups: 5, Recovers: 3, OpsRing: 1 << 19},
	"crash-recover": {Records: 200000, RegionMB: 256, ReadFrac: 0.5, Clients: 2,
		Setups: 5, Recovers: 3, ChurnOps: 200000, OpsRing: 1 << 18},
}

// unlisted are the workloads left out of BENCHMARK.json: kv-read's figures
// follow the host's memory bandwidth and vCPU wake-up latency more than the
// program (README.md, "Steadiness"), so it is not a regression gate. It
// still runs on request and in the test.
var unlisted = map[string]bool{"kv-read": true}

// runConfig is one invocation.
type runConfig struct {
	workload string
	p        params
	seed     int64
	seconds  float64
	trace    bool
	dir      string // work directory: socket, checkpoint images, span files
}

// envInfo records what the numbers depend on besides the code.
type envInfo struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	OS             string `json:"os"`
	Arch           string `json:"arch"`
	FlushLatencyNs int64  `json:"flush_latency_ns"`
	FenceLatencyNs int64  `json:"fence_latency_ns"`
	// CPUProbeMops is the speed of a fixed integer loop just before the
	// run, in millions of iterations per second: on a shared machine it
	// shows how much CPU the run had.
	CPUProbeMops float64 `json:"cpu_probe_mops"`
	// MemProbeGBps is the rate of copying a 64 MB buffer just before the
	// run: the snapshot copy and the heap scans depend on memory bandwidth,
	// which other tenants share too.
	MemProbeGBps float64 `json:"mem_probe_gbps"`
	// CoreLimited marks runs with more busy goroutines (a client and a
	// server connection per client, or one churn worker each) than cores:
	// their throughput is bounded by core count.
	CoreLimited bool `json:"core_limited"`
}

func environment(p params, workload string) envInfo {
	busy := 2 * p.Clients
	if workload == "crash-recover" {
		busy = p.Clients
	}
	return envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
		FlushLatencyNs: int64(bench.DefaultNVM.FlushLatency / time.Nanosecond),
		FenceLatencyNs: int64(bench.DefaultNVM.FenceLatency / time.Nanosecond),
		CoreLimited:    busy > runtime.GOMAXPROCS(0),
		CPUProbeMops:   cpuProbe(),
		MemProbeGBps:   memProbe(),
	}
}

// memProbe copies a 64 MB buffer for 200 ms and returns the rate.
func memProbe() float64 {
	src, dst := make([]byte, 64<<20), make([]byte, 64<<20)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault every page in before timing
	t0 := time.Now()
	n := 0
	for time.Since(t0) < 200*time.Millisecond {
		n += copy(dst, src)
	}
	return float64(n) / time.Since(t0).Seconds() / 1e9
}

// probeSink keeps cpuProbe's loop from being optimized away.
var probeSink uint64

// cpuProbe runs a fixed integer loop for 200 ms and returns its rate.
func cpuProbe() float64 {
	t0 := time.Now()
	n, x := 0, uint64(1)
	for time.Since(t0) < 200*time.Millisecond {
		for i := 0; i < 10000; i++ {
			x = mix64(x)
		}
		n += 10000
	}
	probeSink = x
	return float64(n) / time.Since(t0).Seconds() / 1e6
}

func main() {
	workload := flag.String("workload", "", "kv-read, kv-write or crash-recover")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build", "work directory for sockets, images and span files")
	flag.Parse()
	p, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload kv-read|kv-write|crash-recover --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, p: p, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints an information line (seed,
// environment, parameters, sample counts) and then the result line.
func run(cfg runConfig, out io.Writer) error {
	p := cfg.p
	if p.Clients < 1 || p.Records%p.Clients != 0 {
		return fmt.Errorf("records (%d) must be a multiple of clients (%d)", p.Records, p.Clients)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Write back whatever the file system holds dirty (the build's output,
	// an earlier run's files), so no write-back is pending when the run
	// starts.
	syscall.Sync()

	env := environment(p, cfg.workload)
	rep := newReport()
	var spans []span
	switch cfg.workload {
	case "kv-read", "kv-write":
		spans, err = runKV(cfg, work, rep)
	case "crash-recover":
		spans, err = runCrashRecover(cfg, work, rep)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	res, err := rep.result(defs)
	if err != nil {
		return err
	}

	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"env": env, "params": p, "samples": rep.samples, "series": rep.series, "failures": rep.failures,
	}
	if cfg.trace {
		path := filepath.Join(cfg.dir, "traces", fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		info["spans"], info["span_file"] = len(spans), path
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(res)
}
