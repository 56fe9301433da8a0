package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// small shrinks a workload so the whole matrix runs in seconds.
func small(name string) params {
	p := workloads[name]
	p.Records, p.RegionMB, p.OpsRing = 2000, 8, 4096
	p.Setups, p.Recovers, p.WarmupS = 2, 2, 0.05
	if p.ChurnOps > 0 {
		p.ChurnOps = 2000
	}
	return p
}

// runSmall runs one small workload and decodes the result line.
func runSmall(t *testing.T, name string, trace bool) result {
	t.Helper()
	var out bytes.Buffer
	cfg := runConfig{workload: name, p: small(name), seed: 7, seconds: 1, trace: trace, dir: t.TempDir()}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var info struct {
		Seed int64   `json:"seed"`
		Env  envInfo `json:"env"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &info); err != nil || info.Seed != 7 || info.Env.NProc == 0 {
		t.Fatalf("%s: information line %q (%v)", name, lines[0], err)
	}
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("%s: last line %q: %v", name, last, err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("%s: result keys %v", name, got)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d (error_ratio must be 0)",
			name, trace, res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, m, d.unit)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
		}
	}
	return res
}

func TestWorkloads(t *testing.T) {
	for _, name := range []string{"kv-read", "kv-write", "crash-recover"} {
		t.Run(name, func(t *testing.T) {
			runSmall(t, name, false)
			layers := runSmall(t, name, true).Metrics
			switch name {
			case "kv-read":
				// Reads neither allocate nor persist.
				for _, m := range []string{"pmem.flushes_per_op", "ralloc.mallocs_per_op"} {
					if v := layers[m].Value; v != 0 {
						t.Errorf("kv-read %s = %v, want 0", m, v)
					}
				}
			case "kv-write":
				if layers["ralloc.mallocs_per_op"].Value == 0 || layers["pmem.flushes_per_op"].Value == 0 {
					t.Errorf("kv-write measured no allocator or flush work: %+v", layers)
				}
			case "crash-recover":
				if back, flushes := layers["pmem.recovery_lines_back"].Value, layers["pmem.recovery_flushes"].Value; back > flushes {
					t.Errorf("recovery wrote back %v lines with %v flushes", back, flushes)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && !unlisted[name] {
			t.Errorf("workload %s is neither in BENCHMARK.json nor marked unlisted", name)
		}
	}
}

func TestValuesRoundTrip(t *testing.T) {
	var v [valueSize]byte
	fillValue(v[:], 42, 17, 3)
	if ver, ok := decodeValue(v[:], 42, 17); !ok || ver != 3 {
		t.Fatalf("decode = %d, %v", ver, ok)
	}
	if _, ok := decodeValue(v[:], 42, 18); ok {
		t.Fatal("value of record 17 accepted for record 18")
	}
	v[50] ^= 1
	if _, ok := decodeValue(v[:], 42, 17); ok {
		t.Fatal("corrupted value accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "parent", id: 1, start: 0, end: 100},
		{name: "a", id: 2, parent: 1, start: 10, end: 30},
		{name: "b", id: 3, parent: 1, start: 20, end: 50},  // overlaps a
		{name: "c", id: 4, parent: 1, start: 90, end: 120}, // runs past the parent
	}
	if got := selfTimes(spans)[1]; got != 100-40-10 {
		t.Fatalf("self time = %d, want 50", got)
	}
}
