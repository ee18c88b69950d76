package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/graphio"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

// coloringWorkload is one of the in-process closed-loop workloads: a
// single client colors the workload graph, verifies the coloring, and
// repeats; between colorings it mutates the graph's service job
// (session).
type coloringWorkload struct {
	strong bool   // Algorithm 2 on the symmetric digraph
	engine string // "sync", "shard" or "tcp"
}

var (
	edgeSync    = coloringWorkload{engine: "sync"}
	strongShard = coloringWorkload{strong: true, engine: "shard"}
	edgeTCP     = coloringWorkload{engine: "tcp"}
)

// tcpNodes is the node process count of the edge-tcp workload.
const tcpNodes = 2

// Seeds: the graph and the run derive from --seed the same way on
// every workload, so edge-sync and edge-tcp color the same graph with
// the same run seed.
func graphSeed(seed uint64) uint64 { return rng.Mix64(seed ^ 0x67726170) }
func runSeed(seed uint64) uint64   { return rng.Mix64(seed ^ 0x72756e73) }

func (w coloringWorkload) size(s sizes) (int, float64) {
	if w.strong {
		return s.strongN, s.strongDeg
	}
	return s.edgeN, s.edgeDeg
}

// coloring is one measured call into core.
type coloring struct {
	res     *core.Result
	wallS   float64
	allocB  float64
	mallocs float64
	gcs     float64
	pauseS  float64
	cpuS    float64
	ioB     float64
	shard   net.ShardStats
}

// colorOnce runs the workload's algorithm once. tr, when non-nil,
// wraps the engine to time every Step (not possible on tcp, whose
// nodes live in other processes).
func (w coloringWorkload) colorOnce(g *graph.Graph, d *graph.Digraph, seed uint64, tr *stepTrace, engine string) (coloring, error) {
	opt := core.Options{Seed: runSeed(seed)}
	var c coloring
	switch engine {
	case "sync":
		opt.Engine = net.RunSync
	case "shard":
		opt.Engine = net.RunShard
		opt.Workers = runtime.NumCPU()
		opt.ShardStats = &c.shard
	case "tcp":
		opt.Cluster = &net.TCPCluster{Nodes: tcpNodes}
	}
	if tr != nil {
		tr.inner = opt.Engine
		opt.Engine = tr.Engine
	}
	m0, cpu0, io0 := readMem(), cpuSeconds(), ioBytes()
	var err error
	c.wallS = timed(func() {
		if w.strong {
			c.res, err = core.ColorStrong(d, opt)
		} else {
			c.res, err = core.ColorEdges(g, opt)
		}
	})
	m1, cpu1, io1 := readMem(), cpuSeconds(), ioBytes()
	c.allocB = float64(m1.totalAlloc - m0.totalAlloc)
	c.mallocs = float64(m1.mallocs - m0.mallocs)
	c.gcs = float64(m1.numGC - m0.numGC)
	c.pauseS = float64(m1.pauseNs-m0.pauseNs) / 1e9
	c.cpuS = cpu1 - cpu0
	c.ioB = float64(io1 - io0)
	return c, err
}

// checkColoring verifies a finished coloring: complete, valid, and for
// Algorithm 1 within the paper's 2Δ−1 bound.
func (w coloringWorkload) checkColoring(g *graph.Graph, d *graph.Digraph, res *core.Result) error {
	if !res.Terminated {
		return fmt.Errorf("run did not terminate after %d rounds", res.CompRounds)
	}
	if w.strong {
		if v := verify.StrongColoring(d, res.Colors); len(v) > 0 {
			return fmt.Errorf("strong coloring invalid: %d violations, first %v", len(v), v[0])
		}
		return nil
	}
	if v := verify.EdgeColoring(g, res.Colors); len(v) > 0 {
		return fmt.Errorf("edge coloring invalid: %d violations, first %v", len(v), v[0])
	}
	if bound := 2*g.MaxDegree() - 1; res.NumColors > bound {
		return fmt.Errorf("%d colors exceed 2Δ−1 = %d", res.NumColors, bound)
	}
	return nil
}

func runColoring(w coloringWorkload, p params) *outcome {
	o := newOutcome()
	n, deg := w.size(p.sizes)

	// Set-up: build the input several times; report the median.
	var g *graph.Graph
	var d *graph.Digraph
	var setups, gens []float64
	for i := 0; i < p.sizes.setupReps; i++ {
		var err error
		t0 := time.Now()
		g, err = gen.ErdosRenyiAvgDegree(rng.New(graphSeed(p.seed)), n, deg)
		gens = append(gens, time.Since(t0).Seconds())
		if err != nil {
			o.check(false, "generate graph: %v", err)
			return o
		}
		if w.strong {
			d = graph.NewSymmetric(g)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m := float64(g.M())
	o.shape["n"], o.shape["m"], o.shape["delta"] = g.N(), g.M(), g.MaxDegree()
	if w.strong {
		o.shape["arcs"] = d.A()
	}
	o.set("setup_s", median(setups), "s")

	sess := openSession(o, g, p, int(deg))
	defer sess.close(o)

	// edge-tcp must reproduce edge-sync's coloring byte for byte: color
	// the same graph with the same seed on the sequential engine first.
	// The tcp nodes step in other processes, so the traced run colors
	// this reference twice, untraced and traced, for the Step split and
	// its tracing overhead.
	var refDigest string
	var refTrace *stepTrace
	var refs []coloring
	if w.engine == "tcp" {
		traces := []*stepTrace{nil}
		if p.trace {
			refTrace = newStepTrace(nil, 1)
			traces = append(traces, refTrace)
		}
		for _, tr := range traces {
			ref, err := w.colorOnce(g, d, p.seed, tr, "sync")
			if err == nil {
				err = w.checkColoring(g, d, ref.res)
			}
			if err == nil && refDigest != "" && digest(ref.res.Colors) != refDigest {
				err = fmt.Errorf("traced and untraced reference colorings differ")
			}
			o.check(err == nil, "edge-sync reference coloring: %v", err)
			if err != nil {
				return o
			}
			refDigest = digest(ref.res.Colors)
			refs = append(refs, ref)
		}
	}

	workers := 1
	if w.engine == "shard" {
		workers = runtime.NumCPU()
	}
	// The colorings take the run's time; the session's mutate rounds
	// are spread over it, and their count is fixed, so their work is the
	// same on every run.
	colorStart := time.Now()
	colorUntil := colorStart.Add(time.Duration(p.seconds * float64(time.Second)))
	var plain, traced []coloring
	var jobs, verifies []float64
	var steps, busiest, imbalance, engines []float64
	var last *core.Result
	var firstDigest string
	var outbox *stepTrace // the first traced coloring, for the codec probe
	for i := 0; len(plain)+len(traced) < p.sizes.minReps || time.Now().Before(colorUntil); i++ {
		// The traced run alternates traced and untraced colorings, so
		// the tracing overhead is measured inside one process.
		var tr *stepTrace
		if p.trace && i%2 == 1 && w.engine != "tcp" {
			tr = newStepTrace(nil, workers)
		}
		c, err := w.colorOnce(g, d, p.seed, tr, w.engine)
		if err != nil {
			o.check(false, "coloring %d: %v", i, err)
			return o
		}
		var verr error
		vs := timed(func() { verr = w.checkColoring(g, d, c.res) })
		dg := digest(c.res.Colors)
		if firstDigest == "" {
			firstDigest = dg
		}
		switch {
		case verr != nil:
			o.check(false, "coloring %d: %v", i, verr)
		case dg != firstDigest:
			o.check(false, "coloring %d: digest %s differs from the first run's %s", i, dg, firstDigest)
		case refDigest != "" && dg != refDigest:
			o.check(false, "coloring %d: tcp digest %s differs from edge-sync's %s", i, dg, refDigest)
		default:
			o.check(true, "")
		}
		// Keep only the last coloring alive, so the live heap does not
		// grow with the number of colorings a run fits in.
		last, c.res = c.res, nil
		jobs = append(jobs, c.wallS+vs)
		verifies = append(verifies, vs)
		sess.pace(o, time.Since(colorStart).Seconds()/p.seconds)
		if tr == nil {
			plain = append(plain, c)
			continue
		}
		traced = append(traced, c)
		total, busy, imb := tr.split()
		steps, busiest, imbalance = append(steps, total), append(busiest, busy), append(imbalance, imb)
		engines = append(engines, tr.engineS)
		if outbox == nil {
			outbox = tr
		}
	}
	o.info["digest"] = firstDigest
	o.info["reference_digest"] = refDigest
	o.info["colorings"] = len(plain) + len(traced)

	// The live heap is read with the session's server still open, once
	// every round has run, so the job it retains is always in it.
	sess.finish(o)
	heapMB := heapLiveMB()
	hists := sess.hists()
	if !w.strong {
		o.check(sess.rec.digest == firstDigest, "service colored the graph %s, the workload %s", sess.rec.digest, firstDigest)
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(d)
	rss := rssPeakMB()

	walls := field(plain, func(c coloring) float64 { return c.wallS })
	o.samples["jobs"] = len(jobs)
	o.samples["colorings_untraced"] = len(plain)
	o.samples["colorings_traced"] = len(traced)
	mutP50, mutP90, batches := sess.latencies()
	o.samples["mutate_batches"] = batches
	o.samples["mutate_rounds"] = len(sess.rounds)

	if !p.trace {
		o.set("edges_per_s", m/median(walls), "edges/s")
		o.set("alloc_b_per_edge", median(field(plain, func(c coloring) float64 { return c.allocB }))/m, "B/edge")
		o.set("rss_peak_mb", rss, "MB")
		o.set("palette", float64(last.NumColors), "colors")
		o.set("comp_rounds", float64(last.CompRounds), "rounds")
		o.set("jobs_per_s", float64(len(jobs))/sum(jobs), "1/s")
		o.set("job_p50_ms", 1e3*median(jobs), "ms")
		o.set("job_p90_ms", 1e3*quantile(jobs, 0.9), "ms")
		o.set("mutate_p50_ms", 1e3*mutP50, "ms")
		o.set("mutate_p90_ms", 1e3*mutP90, "ms")
		o.set("heap_live_mb", heapMB, "MB")
		return o
	}

	// Traced run: per-layer metrics. The Step split comes from the
	// traced colorings (on tcp from the traced reference), counters and
	// runtime deltas from the untraced ones.
	if w.engine == "tcp" {
		total, busy, imb := refTrace.split()
		steps, busiest, imbalance = []float64{total}, []float64{busy}, []float64{imb}
		engines = []float64{refTrace.engineS}
		walls, traced = []float64{refs[0].wallS}, refs[1:]
		outbox = refTrace
	}
	tracedWall := median(field(traced, func(c coloring) float64 { return c.wallS }))
	o.set("gen.build_s", median(gens), "s")
	o.set("graphio.read_s", graphioRead(o, graphBytes(g)), "s")
	o.set("core.step_s", median(steps), "s")
	o.set("core.step_ns_per_edge", 1e9*median(steps)/m, "ns/edge")
	o.set("net.deliver_s", median(engines)-median(busiest), "s")
	o.set("core.assemble_s", tracedWall-median(engines), "s")
	o.set("net.shard.step_imbalance", median(imbalance), "ratio")
	o.set("trace.coloring_s", tracedWall, "s")
	o.set("trace.overhead", tracedWall/median(walls)-1, "ratio")
	setNetMetrics(o, last)
	o.set("net.shard.records", median(field(plain, func(c coloring) float64 { return float64(c.shard.Records) })), "count")
	o.set("net.shard.merge_scans", median(field(plain, func(c coloring) float64 { return float64(c.shard.MergeScans) })), "count")
	o.set("net.shard.merge_skips", median(field(plain, func(c coloring) float64 { return float64(c.shard.MergeSkips) })), "count")
	o.set("net.tcp.wire_b_per_edge", median(field(plain, func(c coloring) float64 { return c.ioB }))/m, "B/edge")
	o.set("net.tcp.coord_cpu_s", median(field(plain, func(c coloring) float64 { return c.cpuS })), "s")
	o.set("runtime.allocs_per_edge", median(field(plain, func(c coloring) float64 { return c.mallocs }))/m, "allocs/edge")
	o.set("runtime.gc_cycles", median(field(plain, func(c coloring) float64 { return c.gcs })), "count")
	o.set("runtime.gc_pause_s", median(field(plain, func(c coloring) float64 { return c.pauseS })), "s")
	o.set("verify.s", median(verifies), "s")
	o.set("dynamic.repair_ms", hists.meanMS("serve_mutate_repair_usec"), "ms")
	o.set("service.submit_ms", 1e3*sess.rec.submitS, "ms")
	o.set("service.queue_wait_ms", hists.meanMS("serve_queue_wait_usec"), "ms")
	o.set("service.run_ms", hists.meanMS("serve_run_usec"), "ms")
	o.set("service.result_ms", 1e3*sess.rec.resultS, "ms")
	o.set("service.result_b", sess.rec.resultB, "B")
	o.set("service.heap_per_job_kb", sess.heapKB, "KB")
	setCodecMetrics(o, outbox)
	return o
}

// setNetMetrics reports the engine's traffic counters from a Result.
func setNetMetrics(o *outcome, res *core.Result) {
	o.set("net.comm_rounds", float64(res.CommRounds), "rounds")
	o.set("net.messages", float64(res.Messages), "count")
	o.set("net.deliveries_per_msg", float64(res.Deliveries)/float64(max(res.Messages, 1)), "ratio")
	o.set("net.bytes", float64(res.Bytes), "B")
}

// setCodecMetrics times the wire codec on the outbox a traced run
// captured.
func setCodecMetrics(o *outcome, tr *stepTrace) {
	enc, dec, err := codecProbe(tr.outbox, 200*time.Millisecond)
	o.check(err == nil && len(tr.outbox) > 0, "codec probe on %d messages: %v", len(tr.outbox), err)
	o.set("msg.encode_ns_per_msg", enc, "ns/msg")
	o.set("msg.decode_ns_per_msg", dec, "ns/msg")
}

// graphioRead parses data with graphio.ReadGraph a few times and
// returns the median parse time.
func graphioRead(o *outcome, data []byte) float64 {
	var ts []float64
	for i := 0; i < 3; i++ {
		var err error
		ts = append(ts, timed(func() { _, err = graphio.ReadGraph(bytes.NewReader(data)) }))
		o.check(err == nil, "graphio.ReadGraph: %v", err)
	}
	return median(ts)
}

// graphBytes serializes g in the edge-list format the service accepts.
func graphBytes(g *graph.Graph) []byte {
	var b bytes.Buffer
	if err := graphio.WriteGraph(&b, g); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

func field(cs []coloring, f func(coloring) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}
