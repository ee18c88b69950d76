package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/service"
	"dima/internal/verify"
)

// timedRunner wraps the service's job runner from outside: it times
// every run and, in the traced run, executes every other job with the
// Step-timing engine wrapper instead of service.ShardRunner, so the
// tracing overhead is measured within one process.
type timedRunner struct {
	workers int
	trace   bool

	mu              sync.Mutex
	calls           int
	plain, tracedS  []float64
	steps, busiest  []float64
	imbalance, engs []float64
	low             *core.Result // the result of the lowest-seeded job
	lowSeed         uint64
	shard           []net.ShardStats
	outbox          *stepTrace
}

func (t *timedRunner) run(ctx context.Context, req service.JobRequest, sink metrics.Sink) (*core.Result, error) {
	t.mu.Lock()
	call := t.calls
	t.calls++
	t.mu.Unlock()
	if !t.trace || call%2 == 0 {
		var res *core.Result
		var err error
		s := timed(func() { res, err = service.ShardRunner(t.workers)(ctx, req, sink) })
		t.mu.Lock()
		t.plain = append(t.plain, s)
		t.keep(req.Seed, res)
		t.mu.Unlock()
		return res, err
	}
	// The options service.ShardRunner sets, with the engine wrapped.
	tr := newStepTrace(net.RunShard, t.workers)
	var st net.ShardStats
	opt := core.Options{
		Seed: req.Seed, Engine: tr.Engine, Workers: t.workers, MaxCompRounds: req.MaxRounds,
		Metrics: sink, ShardStats: &st,
	}
	opt.Recovery.Enabled = req.Recovery
	var res *core.Result
	var err error
	s := timed(func() {
		if req.Strong {
			res, err = core.ColorStrongCtx(ctx, graph.NewSymmetric(req.Graph), opt)
		} else {
			res, err = core.ColorEdgesCtx(ctx, req.Graph, opt)
		}
	})
	total, busy, imb := tr.split()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracedS = append(t.tracedS, s)
	t.steps, t.busiest, t.imbalance = append(t.steps, total), append(t.busiest, busy), append(t.imbalance, imb)
	t.engs = append(t.engs, tr.engineS)
	t.keep(req.Seed, res)
	t.shard = append(t.shard, st)
	if t.outbox == nil && len(tr.outbox) > 0 {
		t.outbox = tr
	}
	return res, err
}

// keep holds on to res if its job has the lowest seed so far: the
// clients race, so which job runs last, or traced, differs between
// runs, but the lowest-seeded upload is the same on every run.
func (t *timedRunner) keep(seed uint64, res *core.Result) {
	if res != nil && (t.low == nil || seed < t.lowSeed) {
		t.low, t.lowSeed = res, seed
	}
}

// benchServer is an in-process service.Server behind an httptest
// loopback listener.
type benchServer struct {
	svc    *service.Server
	ts     *httptest.Server
	reg    *metrics.Registry
	runner *timedRunner
	client *http.Client
}

func startServer(r *timedRunner, clients int) *benchServer {
	reg := metrics.NewRegistry()
	svc := service.New(service.Config{
		Workers: 1, ShardWorkers: r.workers, QueueSize: 4 * clients, Registry: reg, Runner: r.run,
	})
	ts := httptest.NewServer(svc)
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * clients}
	return &benchServer{svc: svc, ts: ts, reg: reg, runner: r, client: &http.Client{Transport: tr}}
}

// close stops the listener, then drains the service.
func (s *benchServer) close() error {
	s.ts.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.svc.Shutdown(ctx)
}

// histSums accumulates the service latency histograms (µs) of every
// server a run started.
type histSums map[string][2]int64

func (h histSums) absorb(reg *metrics.Registry) {
	for name, snap := range reg.Snapshot().Histograms {
		acc := h[name]
		h[name] = [2]int64{acc[0] + snap.Sum, acc[1] + snap.N}
	}
}

// meanMS is one histogram's mean over all absorbed servers, in ms.
func (h histSums) meanMS(name string) float64 {
	acc := h[name]
	if acc[1] == 0 {
		return 0
	}
	return float64(acc[0]) / float64(acc[1]) / 1e3
}

// upload is one graph a client submits, with its serialized bytes.
type upload struct {
	g    *graph.Graph
	data []byte
	seed uint64
}

// jobRecord is what one client job measured.
type jobRecord struct {
	pool            int
	m               int
	submitS, latS   float64
	resultS         float64
	resultB         float64
	verifyS         float64
	palette, rounds int
	digest          string
	mutLat          []float64
}

// runJob is one closed-loop client job: upload the graph, wait for the
// Algorithm 1 job to finish on /events, fetch and verify the coloring,
// then stream batches of mutations with the given mutate query and
// re-verify the final maintained coloring against the client's own
// mirror of the graph.
func (s *benchServer) runJob(ctx context.Context, up upload, batches int, mg *mutator, query string) (jobRecord, error) {
	rec, id, err := s.colorJob(ctx, up)
	if err != nil {
		return rec, err
	}
	mirror := up.g.Clone()
	rec.mutLat, err = s.mutate(ctx, id, mirror, 1, batches, mg, fmt.Sprintf("seed=%d&%s", up.seed, query))
	if err != nil {
		return rec, err
	}
	return rec, s.checkMutated(ctx, id, mirror)
}

// colorJob uploads the graph, waits for the Algorithm 1 job to finish
// on /events, then fetches and verifies its coloring. It returns the
// job's record and id.
func (s *benchServer) colorJob(ctx context.Context, up upload) (jobRecord, string, error) {
	var rec jobRecord
	rec.m = up.g.M()
	t0 := time.Now()
	url := fmt.Sprintf("%s/jobs?seed=%d", s.ts.URL, up.seed)
	var st service.JobStatus
	if err := s.do(ctx, "POST", url, "text/plain", up.data, http.StatusAccepted, &st); err != nil {
		return rec, "", fmt.Errorf("submit: %w", err)
	}
	rec.submitS = time.Since(t0).Seconds()
	state, err := s.awaitTerminal(ctx, st.ID)
	if err != nil {
		return rec, st.ID, err
	}
	if state != service.StateDone {
		return rec, st.ID, fmt.Errorf("job %s ended %s", st.ID, state)
	}
	t1 := time.Now()
	var res service.JobResult
	n, err := s.get(ctx, "/jobs/"+st.ID+"/result", &res)
	if err != nil {
		return rec, st.ID, fmt.Errorf("result: %w", err)
	}
	rec.resultS, rec.resultB = time.Since(t1).Seconds(), float64(n)
	var v []verify.Violation
	rec.verifyS = timed(func() { v = verify.EdgeColoring(up.g, res.Colors) })
	if len(v) > 0 {
		return rec, st.ID, fmt.Errorf("job %s: served coloring invalid: %d violations, first %v", st.ID, len(v), v[0])
	}
	if res.Result == nil || !res.Result.Terminated {
		return rec, st.ID, fmt.Errorf("job %s: result not terminated", st.ID)
	}
	rec.latS = time.Since(t0).Seconds()
	rec.palette, rec.rounds, rec.digest = res.Result.Colors, res.Result.Rounds, digest(res.Colors)
	return rec, st.ID, nil
}

// checkMutated re-verifies a mutated job's maintained coloring against
// the client's mirror of its graph.
func (s *benchServer) checkMutated(ctx context.Context, id string, mirror *graph.Graph) error {
	var final service.JobResult
	if _, err := s.get(ctx, "/jobs/"+id+"/result", &final); err != nil {
		return fmt.Errorf("post-mutate result: %w", err)
	}
	if v := verify.EdgeColoring(mirror, final.Colors); len(v) > 0 || final.M != mirror.M() {
		return fmt.Errorf("job %s: post-mutate coloring invalid (%d violations, m %d vs %d)", id, len(v), final.M, mirror.M())
	}
	return nil
}

// mutate streams batches NDJSON mutate batches, numbered from first,
// over one full-duplex request with the given query, closed loop: each
// batch is written only after the previous batch's response line
// arrived, and its latency runs from its write to its own response line.
func (s *benchServer) mutate(ctx context.Context, id string, mirror *graph.Graph, first uint64, batches int, mg *mutator, query string) ([]float64, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.Close()
	url := fmt.Sprintf("%s/jobs/%s/mutate?%s", s.ts.URL, id, query)
	req, err := http.NewRequestWithContext(ctx, "POST", url, pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type answer struct {
		resp *http.Response
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := s.client.Do(req)
		answered <- answer{resp, err}
	}()
	send := func(seq uint64) error {
		b := mg.next(mirror, seq)
		mb := service.MutateBatch{Seq: b.Seq}
		for _, m := range b.Muts {
			op := "+"
			if m.Op == msg.OpDelete {
				op = "-"
			}
			mb.Muts = append(mb.Muts, service.MutateMutation{Op: op, U: m.U, V: m.V})
		}
		line, err := json.Marshal(mb)
		if err != nil {
			return err
		}
		_, err = pw.Write(append(line, '\n'))
		return err
	}
	t0 := time.Now()
	if err := send(first); err != nil {
		return nil, fmt.Errorf("mutate: send: %w", err)
	}
	a := <-answered
	if a.err != nil {
		return nil, fmt.Errorf("mutate: %w", a.err)
	}
	defer a.resp.Body.Close()
	if a.resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("mutate: status %d", a.resp.StatusCode)
	}
	br := bufio.NewReader(a.resp.Body)
	var lat []float64
	for i := first; i < first+uint64(batches); i++ {
		if i > first {
			t0 = time.Now()
			if err := send(i); err != nil {
				return lat, fmt.Errorf("mutate: send: %w", err)
			}
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			return lat, fmt.Errorf("mutate: response line %d: %w", i, err)
		}
		lat = append(lat, time.Since(t0).Seconds())
		var mr service.MutateResponse
		if err := json.Unmarshal(line, &mr); err != nil {
			return lat, fmt.Errorf("mutate response: %w", err)
		}
		if !mr.Applied || (mr.Valid != nil && !*mr.Valid) || mr.Seq != i {
			return lat, fmt.Errorf("mutate batch %d: seq=%d applied=%t valid=%v error=%q", i, mr.Seq, mr.Applied, mr.Valid, mr.Error)
		}
	}
	if err := pw.Close(); err != nil {
		return lat, err
	}
	if rest, err := io.ReadAll(br); err != nil || len(bytes.TrimSpace(rest)) > 0 {
		return lat, fmt.Errorf("mutate: trailing response %q (%v)", rest, err)
	}
	return lat, nil
}

// awaitTerminal follows the job's /events stream until a status event
// reports a terminal state.
func (s *benchServer) awaitTerminal(ctx context.Context, id string) (service.State, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", s.ts.URL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "status" {
			continue
		}
		var st service.JobStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		switch st.State {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			return st.State, nil
		}
	}
	return "", fmt.Errorf("events: stream ended before a terminal status (%v)", sc.Err())
}

// do sends one request and decodes a JSON answer with the wanted status.
func (s *benchServer) do(ctx context.Context, method, url, ctype string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// get fetches path and decodes it, returning the body size.
func (s *benchServer) get(ctx context.Context, path string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", s.ts.URL+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return len(raw), json.Unmarshal(raw, out)
}

// servePool generates the uploads the serve clients cycle through.
func servePool(p params) ([]upload, []float64, error) {
	s := p.sizes
	pool := make([]upload, s.servePool)
	gens := make([]float64, s.servePool)
	for i := range pool {
		var g *graph.Graph
		var err error
		gens[i] = timed(func() {
			g, err = gen.ErdosRenyiAvgDegree(rng.New(graphSeed(p.seed)+uint64(i)), s.serveN, s.serveDeg)
		})
		if err != nil {
			return nil, nil, err
		}
		pool[i] = upload{g: g, data: graphBytes(g), seed: runSeed(p.seed) + uint64(i)}
	}
	return pool, gens, nil
}

func runServe(p params) *outcome {
	o := newOutcome()
	s := p.sizes
	var pool []upload
	var gens, setups []float64
	runner := &timedRunner{workers: runtime.NumCPU(), trace: p.trace}
	var srv *benchServer
	for i := 0; i < s.setupReps; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				o.check(false, "server shutdown: %v", err)
			}
		}
		var err error
		setups = append(setups, timed(func() {
			pool, gens, err = servePool(p)
			srv = startServer(runner, s.serveClients)
		}))
		if err != nil {
			o.check(false, "generate uploads: %v", err)
			return o
		}
	}
	o.set("setup_s", median(setups), "s")
	o.shape["n"], o.shape["m"], o.shape["delta"] = pool[0].g.N(), pool[0].g.M(), pool[0].g.MaxDegree()
	o.shape["uploads"] = len(pool)
	maxDelta := 0
	for _, up := range pool {
		maxDelta = max(maxDelta, up.g.MaxDegree())
	}
	o.shape["max_delta"] = maxDelta

	heap0 := heapLiveMB()
	m0, cpu0, io0 := readMem(), cpuSeconds(), ioBytes()
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	var mu sync.Mutex
	var recs []jobRecord
	// clients runs the closed-loop clients over job numbers [lo, hi).
	clients := func(lo, hi int) {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c := 0; c < s.serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1) - 1); k < hi; k = int(next.Add(1) - 1) {
					up := pool[k%len(pool)]
					mg := newMutator(rng.New(rng.Mix64(p.seed^uint64(k)<<8)), s.batchMuts)
					rec, err := srv.runJob(context.Background(), up, s.serveBatches, mg, fmt.Sprintf("palette=%d", s.palette))
					rec.pool = k % len(pool)
					mu.Lock()
					o.check(err == nil, "job %d: %v", k, err)
					if err == nil {
						recs = append(recs, rec)
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	// The service retains every job, so its heap grows with the job
	// count. Jobs run in segments of minJobs, each on a fresh server,
	// until the deadline: the heap is read after the first segment, and
	// every segment works against the same amount of retained state.
	hists := histSums{}
	var heapMB, elapsed float64
	for seg := 0; seg == 0 || (time.Now().Before(deadline) && o.failed == 0); seg++ {
		if seg > 0 {
			srv = startServer(runner, s.serveClients)
		}
		elapsed += timed(func() { clients(seg*s.minJobs, (seg+1)*s.minJobs) })
		if seg == 0 {
			heapMB = heapLiveMB()
		}
		hists.absorb(srv.reg)
		if err := srv.close(); err != nil {
			o.check(false, "server shutdown: %v", err)
		}
	}
	m1, cpu1, io1 := readMem(), cpuSeconds(), ioBytes()
	rss := rssPeakMB()

	// Determinism: every upload colors the same way on every job.
	byPool := map[int]jobRecord{}
	var jobLat, mutLat, submit, result, resultB, verifies []float64
	edges := 0.0
	for _, r := range recs {
		if first, ok := byPool[r.pool]; ok {
			o.check(first.digest == r.digest, "upload %d colored differently across jobs", r.pool)
		} else {
			byPool[r.pool] = r
		}
		o.attempted += len(r.mutLat)
		jobLat, mutLat = append(jobLat, r.latS), append(mutLat, r.mutLat...)
		submit, result, resultB = append(submit, r.submitS), append(result, r.resultS), append(resultB, r.resultB)
		verifies = append(verifies, r.verifyS)
		edges += float64(r.m)
	}
	var palettes, rounds []float64
	var digests []string
	for i := range pool {
		if r, ok := byPool[i]; ok {
			palettes, rounds = append(palettes, float64(r.palette)), append(rounds, float64(r.rounds))
			digests = append(digests, r.digest)
		}
	}
	o.info["digest"] = strings.Join(digests, ",")
	o.check(len(byPool) == len(pool), "%d of %d uploads completed", len(byPool), len(pool))
	o.samples["jobs"] = len(recs)
	o.samples["mutate_batches"] = len(mutLat)
	jobs := float64(max(len(recs), 1))

	if !p.trace {
		o.set("edges_per_s", edges/(hists.meanMS("serve_run_usec")/1e3*float64(len(recs))), "edges/s")
		o.set("alloc_b_per_edge", float64(m1.totalAlloc-m0.totalAlloc)/edges, "B/edge")
		o.set("rss_peak_mb", rss, "MB")
		o.set("palette", sum(palettes)/float64(max(len(palettes), 1)), "colors")
		o.set("comp_rounds", sum(rounds)/float64(max(len(rounds), 1)), "rounds")
		o.set("jobs_per_s", float64(len(recs))/elapsed, "1/s")
		o.set("job_p50_ms", 1e3*median(jobLat), "ms")
		o.set("job_p90_ms", 1e3*quantile(jobLat, 0.9), "ms")
		o.set("mutate_p50_ms", 1e3*median(mutLat), "ms")
		o.set("mutate_p90_ms", 1e3*quantile(mutLat, 0.9), "ms")
		o.set("heap_live_mb", heapMB, "MB")
	} else {
		// Every job has finished, so the runner's records are final;
		// the lock only orders the reads after its writes.
		r := runner
		r.mu.Lock()
		defer r.mu.Unlock()
		tracedWall := median(r.tracedS)
		o.set("gen.build_s", median(gens), "s")
		var reads []float64
		for _, up := range pool[:min(len(pool), 4)] {
			reads = append(reads, graphioRead(o, up.data))
		}
		o.set("graphio.read_s", median(reads), "s")
		o.set("core.step_s", median(r.steps), "s")
		o.set("core.step_ns_per_edge", 1e9*median(r.steps)/(edges/jobs), "ns/edge")
		o.set("net.deliver_s", median(r.engs)-median(r.busiest), "s")
		o.set("core.assemble_s", tracedWall-median(r.engs), "s")
		o.set("net.shard.step_imbalance", median(r.imbalance), "ratio")
		o.set("trace.coloring_s", tracedWall, "s")
		o.set("trace.overhead", tracedWall/median(r.plain)-1, "ratio")
		if r.low != nil {
			setNetMetrics(o, r.low)
		}
		shardField := func(f func(net.ShardStats) int64) float64 {
			xs := make([]float64, len(r.shard))
			for i, st := range r.shard {
				xs[i] = float64(f(st))
			}
			return median(xs)
		}
		o.set("net.shard.records", shardField(func(st net.ShardStats) int64 { return st.Records }), "count")
		o.set("net.shard.merge_scans", shardField(func(st net.ShardStats) int64 { return st.MergeScans }), "count")
		o.set("net.shard.merge_skips", shardField(func(st net.ShardStats) int64 { return st.MergeSkips }), "count")
		if r.outbox != nil {
			setCodecMetrics(o, r.outbox)
		} else {
			o.check(false, "no traced job captured an outbox")
		}
		o.set("net.tcp.wire_b_per_edge", float64(io1-io0)/edges, "B/edge")
		o.set("net.tcp.coord_cpu_s", (cpu1-cpu0)/jobs, "s")
		o.set("runtime.allocs_per_edge", float64(m1.mallocs-m0.mallocs)/edges, "allocs/edge")
		o.set("runtime.gc_cycles", float64(m1.numGC-m0.numGC)/jobs, "count")
		o.set("runtime.gc_pause_s", float64(m1.pauseNs-m0.pauseNs)/1e9/jobs, "s")
		o.set("verify.s", median(verifies), "s")
		o.set("service.submit_ms", 1e3*median(submit), "ms")
		o.set("service.queue_wait_ms", hists.meanMS("serve_queue_wait_usec"), "ms")
		o.set("service.run_ms", 1e3*median(r.plain), "ms")
		o.set("service.result_ms", 1e3*median(result), "ms")
		o.set("service.result_b", median(resultB), "B")
		o.set("service.heap_per_job_kb", (heapMB-heap0)*1024/float64(s.minJobs), "KB")
		o.set("dynamic.repair_ms", hists.meanMS("serve_mutate_repair_usec"), "ms")
	}
	return o
}

// session is every coloring workload's service session: the workload's
// own graph goes through the service as one Algorithm 1 job (mutations
// need an edge coloring, so strong-shard submits its base graph), then
// one client streams closed-loop mutate rounds into it, each one request
// of roundBatches NDJSON batches, with the service's default per-batch
// re-validation. The rounds are spread evenly over the run's colorings,
// so a burst of noise on the machine lands in few of them. The greedy
// palette is capped at the average degree, as serve caps degree-6
// uploads at 6, so insertions regularly fall through to the automaton
// repair.
type session struct {
	srv            *benchServer
	id             string
	mirror         *graph.Graph
	mg             *mutator
	query          string
	total, batches int         // rounds per run, batches per round
	rec            jobRecord   // the coloring job
	rounds         [][]float64 // per round, each batch's latency in seconds
	heapKB         float64     // live heap the job and its recolorer keep
	failed         bool
}

// openSession starts the server, has it color g and runs the first
// mutate round.
func openSession(o *outcome, g *graph.Graph, p params, palette int) *session {
	up := upload{g: g, data: graphBytes(g), seed: runSeed(p.seed)}
	s := &session{
		srv:     startServer(&timedRunner{workers: runtime.NumCPU()}, 1),
		mirror:  g.Clone(),
		mg:      newMutator(rng.New(rng.Mix64(p.seed^0x6d757461)), p.sizes.batchMuts),
		query:   fmt.Sprintf("seed=%d&palette=%d", up.seed, palette),
		total:   p.sizes.sessionRounds,
		batches: p.sizes.roundBatches,
	}
	heap0 := heapLiveMB()
	var err error
	s.rec, s.id, err = s.srv.colorJob(context.Background(), up)
	o.check(err == nil, "service session: %v", err)
	s.failed = err != nil
	s.round(o)
	s.heapKB = (heapLiveMB() - heap0) * 1024
	return s
}

// round streams the next round of mutate batches. A forced collection
// first clears the garbage the colorings left, so the round's batches
// do not pay for it.
func (s *session) round(o *outcome) {
	if s.failed || len(s.rounds) == s.total {
		return
	}
	runtime.GC()
	first := uint64(len(s.rounds)*s.batches + 1)
	lat, err := s.srv.mutate(context.Background(), s.id, s.mirror, first, s.batches, s.mg, s.query)
	o.attempted += len(lat)
	if err != nil {
		o.fail("service session round %d: %v", len(s.rounds), err)
		s.failed = true
		return
	}
	s.rounds = append(s.rounds, lat)
}

// pace runs the rounds due once the share frac of the coloring window
// has passed: the first at its start, the last at its end.
func (s *session) pace(o *outcome, frac float64) {
	for !s.failed && len(s.rounds) < 1+int(float64(s.total-1)*min(frac, 1)) {
		s.round(o)
	}
}

// finish runs the rounds still due and re-verifies the maintained
// coloring against the client's mirror of the graph.
func (s *session) finish(o *outcome) {
	s.pace(o, 1)
	if !s.failed {
		err := s.srv.checkMutated(context.Background(), s.id, s.mirror)
		o.check(err == nil, "service session: %v", err)
	}
}

// latencies are the medians over the rounds of each round's p50 and p90
// batch latency, in seconds, and the batch count behind them.
func (s *session) latencies() (p50, p90 float64, batches int) {
	var mids, tails []float64
	for _, r := range s.rounds {
		mids, tails = append(mids, median(r)), append(tails, quantile(r, 0.9))
		batches += len(r)
	}
	return median(mids), median(tails), batches
}

// hists are the server's latency histograms so far.
func (s *session) hists() histSums {
	h := histSums{}
	h.absorb(s.srv.reg)
	return h
}

// close shuts the server down; later calls do nothing.
func (s *session) close(o *outcome) {
	if s.srv == nil {
		return
	}
	if err := s.srv.close(); err != nil {
		o.check(false, "service session shutdown: %v", err)
	}
	s.srv = nil
}

// mutator generates valid mutation batches against a mirror of the
// graph: half deletions of live edges, half insertions of absent
// pairs, no pair twice in a batch. next applies each mutation to the
// mirror in batch order, so the mirror's edge ids track the server's.
type mutator struct {
	r   *rng.Rand
	per int
}

func newMutator(r *rng.Rand, per int) *mutator { return &mutator{r: r, per: per} }

func (mg *mutator) next(g *graph.Graph, seq uint64) *msg.MutationBatch {
	b := &msg.MutationBatch{Seq: seq}
	touched := map[[2]int]bool{}
	key := func(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }
	for i := 0; i < mg.per/2 && g.M() > 0; i++ {
		for {
			id := graph.EdgeID(mg.r.Intn(g.EdgeIDBound()))
			if !g.Live(id) {
				continue
			}
			e := g.EdgeAt(id)
			if touched[key(e.U, e.V)] {
				continue
			}
			touched[key(e.U, e.V)] = true
			b.Muts = append(b.Muts, msg.Mutation{Op: msg.OpDelete, U: e.U, V: e.V})
			if _, err := g.RemoveEdge(e.U, e.V); err != nil {
				panic(err) // the edge is live
			}
			break
		}
	}
	for len(b.Muts) < mg.per {
		u, v := mg.r.Intn(g.N()), mg.r.Intn(g.N())
		if u == v || g.HasEdge(u, v) || touched[key(u, v)] {
			continue
		}
		touched[key(u, v)] = true
		b.Muts = append(b.Muts, msg.Mutation{Op: msg.OpInsert, U: u, V: v})
		g.MustAddEdge(u, v)
	}
	return b
}
