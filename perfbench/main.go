// Command perfbench is dima's benchmark: it runs one named workload
// from a seed, checks every output it produces, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before
// it is a report with the input shape, the environment and the sample
// count behind each percentile.
//
//	bash perfbench/run.sh --workload edge-sync --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that wraps each layer's public entry points and reports
// the per-layer metrics. NOTES.md lists the workloads, the metric
// definitions and which end-to-end metric each layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"dima/internal/net"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	shape             map[string]int
	samples           map[string]int
	info              map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		metrics: map[string]metric{},
		shape:   map[string]int{},
		samples: map[string]int{},
		info:    map[string]any{},
	}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// check counts one attempted operation and records it as failed
// unless ok holds.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// fail records a failed operation without counting a new attempt.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// params are one run's command-line settings plus the workload's
// input sizes (tests shrink the sizes).
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	sizes   sizes
}

// sizes are the input dimensions of every workload.
type sizes struct {
	edgeN         int     // edge-sync / edge-tcp vertices
	edgeDeg       float64 // their ER average degree
	strongN       int     // strong-shard vertices
	strongDeg     float64
	serveN        int // vertices of each serve upload
	serveDeg      float64
	servePool     int // distinct uploads the clients cycle through
	serveClients  int
	serveBatches  int // mutate batches per job
	batchMuts     int // mutations per batch
	palette       int // serve mutate palette cap
	minJobs       int // serve: jobs per run at least
	minReps       int // coloring workloads: colorings per run at least
	sessionRounds int // mutate rounds of a coloring workload's service session
	roundBatches  int // mutate batches per session round
	setupReps     int
}

// benchSizes are the sizes BENCHMARK.json's workloads run at.
var benchSizes = sizes{
	edgeN: 5000, edgeDeg: 16,
	strongN: 5000, strongDeg: 8,
	serveN: 1000, serveDeg: 6, servePool: 16, serveClients: 2,
	serveBatches: 10, batchMuts: 20, palette: 6,
	minJobs: 100, minReps: 3, sessionRounds: 20, roundBatches: 20, setupReps: 9,
}

// endToEnd and perLayer are the metric names BENCHMARK.json lists, in
// its order: an untraced run prints exactly the first, a traced run
// exactly the second.
var (
	endToEnd = []string{
		"setup_s", "edges_per_s", "alloc_b_per_edge", "rss_peak_mb", "palette", "comp_rounds",
		"jobs_per_s", "job_p50_ms", "job_p90_ms", "mutate_p50_ms", "mutate_p90_ms", "heap_live_mb",
	}
	perLayer = []string{
		"gen.build_s", "graphio.read_s",
		"core.step_s", "core.step_ns_per_edge", "core.assemble_s",
		"net.deliver_s", "net.comm_rounds", "net.messages", "net.deliveries_per_msg", "net.bytes",
		"net.shard.records", "net.shard.merge_scans", "net.shard.merge_skips", "net.shard.step_imbalance",
		"net.tcp.wire_b_per_edge", "net.tcp.coord_cpu_s",
		"msg.encode_ns_per_msg", "msg.decode_ns_per_msg",
		"runtime.allocs_per_edge", "runtime.gc_cycles", "runtime.gc_pause_s",
		"verify.s",
		"service.submit_ms", "service.queue_wait_ms", "service.run_ms", "service.result_ms",
		"service.result_b", "service.heap_per_job_kb", "dynamic.repair_ms",
		"trace.coloring_s", "trace.overhead",
	}
)

var workloads = map[string]func(params) *outcome{
	"edge-sync":    func(p params) *outcome { return runColoring(edgeSync, p) },
	"strong-shard": func(p params) *outcome { return runColoring(strongShard, p) },
	"edge-tcp":     func(p params) *outcome { return runColoring(edgeTCP, p) },
	"serve":        runServe,
}

func main() {
	// A tcp node process re-executes this binary; it must turn into the
	// node before anything else runs.
	net.MaybeNodeMain()

	workload := flag.String("workload", "", "workload name: edge-sync, strong-shard, edge-tcp, serve")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: benchSizes}
	total0, steal0 := cpuTicks()
	o := run(p)
	total1, steal1 := cpuTicks()
	names := endToEnd
	if p.trace {
		names = perLayer
	}
	emitted := map[string]metric{}
	for _, name := range names {
		v, ok := o.metrics[name]
		if !ok {
			o.fail("metric %s was not measured", name)
			continue
		}
		emitted[name] = v
	}
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	report := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"shape": o.shape, "samples": o.samples, "info": o.info, "env": environment(),
		"error_ratio": float64(o.failed) / float64(max(o.attempted, 1)),
		// The share of machine CPU time a hypervisor stole during the
		// run: the usual cause of wall-time outliers on shared hosts.
		"steal_share": float64(steal1-steal0) / float64(max(total1-total0, 1)),
	}
	printJSON(map[string]any{"report": report})
	correct := o.failed == 0 && o.attempted > 0
	printJSON(map[string]any{
		"correct": correct, "attempted": o.attempted, "failed": o.failed, "metrics": emitted,
	})
	if !correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// environment describes the machine and build the numbers came from.
func environment() map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
	}
	if env["commit"] == "" {
		env["commit"] = "unknown"
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
