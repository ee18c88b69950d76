package main

import (
	"encoding/json"
	"os"
	"testing"

	"dima/internal/net"
)

// TestMain lets the edge-tcp workload re-execute the test binary as a
// cluster node process.
func TestMain(m *testing.M) {
	net.MaybeNodeMain()
	os.Exit(m.Run())
}

// tiny shrinks every workload so the whole suite runs in seconds.
var tiny = sizes{
	edgeN: 300, edgeDeg: 6,
	strongN: 200, strongDeg: 4,
	serveN: 120, serveDeg: 4, servePool: 4, serveClients: 2,
	serveBatches: 3, batchMuts: 6, palette: 4,
	minJobs: 8, minReps: 2, sessionRounds: 3, roundBatches: 5, setupReps: 1,
}

func tinyRun(t *testing.T, workload string, seed uint64, trace bool) *outcome {
	t.Helper()
	o := workloads[workload](params{seed: seed, seconds: 0.01, trace: trace, sizes: tiny})
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("%s trace=%t: %d of %d operations failed: %v", workload, trace, o.failed, o.attempted, o.errs)
	}
	return o
}

type benchFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram checks that BENCHMARK.json names the
// program's workloads and metrics, in the program's order.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, program has %s", i, m.Name, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i] {
			t.Errorf("per_layer[%d] = %s, program has %s", i, m.Name, perLayer[i])
		}
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// size and checks every metric of BENCHMARK.json is measured with its
// unit.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchFile(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				o := tinyRun(t, name, 3, trace)
				check := func(metric, unit string) {
					v, ok := o.metrics[metric]
					if !ok {
						t.Errorf("trace=%t: %s not measured", trace, metric)
					} else if v.Unit != unit {
						t.Errorf("trace=%t: %s in %s, BENCHMARK.json says %s", trace, metric, v.Unit, unit)
					}
				}
				if trace {
					for _, m := range b.PerLayer {
						check(m.Name, m.Unit)
					}
				} else {
					for _, m := range b.EndToEnd {
						check(m.Name, m.Unit)
						if o.metrics[m.Name].Value == 0 {
							t.Errorf("end-to-end %s is 0", m.Name)
						}
					}
				}
				for _, k := range []string{"n", "m", "delta"} {
					if o.shape[k] == 0 {
						t.Errorf("trace=%t: input shape %s not recorded", trace, k)
					}
				}
			}
		})
	}
}

// TestSameSeedSameRun checks that two runs from one seed color
// identically, and that edge-tcp reproduces edge-sync's coloring.
func TestSameSeedSameRun(t *testing.T) {
	digests := map[string]string{}
	for name := range workloads {
		a, b := tinyRun(t, name, 5, true), tinyRun(t, name, 5, true)
		for _, k := range []string{"net.messages"} {
			if a.metrics[k] != b.metrics[k] {
				t.Errorf("%s: %s %v then %v", name, k, a.metrics[k], b.metrics[k])
			}
		}
		c, d := tinyRun(t, name, 5, false), tinyRun(t, name, 5, false)
		for _, k := range []string{"palette", "comp_rounds"} {
			if c.metrics[k] != d.metrics[k] {
				t.Errorf("%s: %s %v then %v", name, k, c.metrics[k], d.metrics[k])
			}
		}
		for _, o := range []*outcome{b, c, d} {
			if o.info["digest"] != a.info["digest"] {
				t.Errorf("%s: digest %v then %v", name, a.info["digest"], o.info["digest"])
			}
		}
		digests[name] = a.info["digest"].(string)
	}
	if digests["edge-tcp"] != digests["edge-sync"] {
		t.Errorf("edge-tcp digest %s, edge-sync %s", digests["edge-tcp"], digests["edge-sync"])
	}
}
