package net

import (
	"context"
	"runtime"

	"dima/internal/graph"
	"dima/internal/msg"
)

// Worker commands, sent on a shard's cmd channel. Values >= 0 mean
// "step this round"; the negative values select the other phases.
const (
	cmdMerge = -1
	cmdStop  = -2
)

// shardDelivery is one delivery record buffered between the step and
// merge phases. On the reliable fast path one record covers a whole
// (message, destination shard) pair: lo/hi bound the destination
// shard's slice of the sender's shard-grouped neighbor array
// (shardSegments.flat), and the merge phase expands the record into
// those neighbors' inboxes. With a fault injector configured,
// deliveries are filtered per receiver at fan-out instead, so each
// record carries exactly one receiver vertex in lo (hi is unused).
type shardDelivery struct {
	lo, hi int32
	m      msg.Message
}

// shardStatus is one worker's end-of-step report: the shared nodeStatus
// fields the coordinator folds into Result/RoundTraffic, plus the
// count of delivery records the worker buffered this round.
type shardStatus struct {
	nodeStatus
	records int64
}

// shardInbox is one shard's inbox arena: the messages of every vertex
// the shard owns, laid out back to back in one flat buffer. Vertex
// lo+i's inbox is buf[off[i]:off[i+1]]. The buffer and offset table are
// reused across rounds (double-buffered per shard), so steady-state
// rounds allocate nothing — the struct-of-arrays replacement for the
// per-vertex ragged [][]msg.Message layout.
type shardInbox struct {
	buf []msg.Message
	off []int32
}

// nbrSeg is one segment of a vertex's shard-grouped neighbor list: the
// neighbors owned by shard dst occupy flat[lo:hi].
type nbrSeg struct {
	dst    int32
	lo, hi int32
}

// shardSegments is the per-run CSR of shard-grouped neighbor lists:
// vertex u's segments are segs[segOf[u]:segOf[u+1]], each naming a
// destination shard and a slice of flat holding u's neighbors in that
// shard. Built once per run (reliable path only), it is what lets the
// step phase buffer one record per (message, destination shard) and
// the merge phase expand records to receivers without the sender ever
// touching per-neighbor state.
type shardSegments struct {
	flat  []int32
	segs  []nbrSeg
	segOf []int32
}

// buildShardSegments groups every vertex's neighbor list by owning
// shard. Within one segment the adjacency order is preserved; segments
// are emitted in ascending shard order. O(n·workers + m) time, one
// pass of scratch counters.
func buildShardSegments(g *graph.Graph, owner []int32, workers int) shardSegments {
	n := g.N()
	total := 0
	for u := 0; u < n; u++ {
		total += g.Degree(u)
	}
	ss := shardSegments{
		flat:  make([]int32, total),
		segOf: make([]int32, n+1),
	}
	cnt := make([]int32, workers)
	cur := make([]int32, workers)
	pos := int32(0)
	for u := 0; u < n; u++ {
		ss.segOf[u] = int32(len(ss.segs))
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		for _, v := range adj {
			cnt[owner[v]]++
		}
		for d := 0; d < workers; d++ {
			c := cnt[d]
			if c == 0 {
				continue
			}
			ss.segs = append(ss.segs, nbrSeg{dst: int32(d), lo: pos, hi: pos + c})
			cur[d] = pos
			pos += c
			cnt[d] = 0
		}
		for _, v := range adj {
			d := owner[v]
			ss.flat[cur[d]] = int32(v)
			cur[d]++
		}
	}
	ss.segOf[n] = int32(len(ss.segs))
	return ss
}

// RunShardCtx is RunShard with an explicit context: the coordinator
// stops the run at the next round barrier after ctx is canceled,
// releases every worker goroutine, and returns the partial Result with
// Aborted set.
func RunShardCtx(ctx context.Context, g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
	cfg.Ctx = ctx
	return RunShard(g, nodes, cfg)
}

// RunShard executes the protocol with cfg.Workers goroutines, each
// owning a contiguous shard of the vertex range. It is the scale
// engine: where RunChan spends a goroutine and a channel per vertex,
// RunShard's costs grow with Workers, so million-vertex graphs run
// without collapsing under scheduler pressure, and on multi-core
// machines the per-round work parallelizes across the shards.
//
// Each round has two barrier-separated phases:
//
//  1. Step: every worker steps its own vertices in id order, puts each
//     outbox into msg.Less order (canonicalOutbox), and buffers each
//     outbound broadcast as one shardDelivery per destination shard
//     that holds a neighbor of the sender (per surviving delivery when
//     a fault injector is configured). Workers touch only their own
//     vertices' inboxes and their own outbound buckets, so the phase
//     is data-race free by partitioning.
//  2. Merge: every worker rebuilds the next-round inbox arena of its
//     own shard by draining the non-empty buckets addressed to it in
//     sender shard order (the coordinator hands each worker the exact
//     source list, so empty (src,dst) buckets are never visited),
//     expanding each record to the sender's neighbors inside this
//     shard. Within one sender shard the records are already in sender
//     id order (workers step in id order), so each inbox fills in
//     ascending sender id — exactly the append order RunSync produces.
//     With canonical outboxes that is msg.Less order, and the identical
//     inboxes make the executions byte-identical: same final colorings,
//     same Result, same per-round RoundTraffic stream, for any Workers.
//
// The coordinator folds worker statistics in shard order between the
// phases and invokes cfg.Observe sequentially in round order, matching
// the other engines' observer contract.
//
// cfg.Fault, when non-nil, is called concurrently from all workers and
// must be safe for concurrent use; the injectors in this package are
// stateless hashes and qualify. Stateful injectors that are sensitive
// to call order (e.g. consuming a shared RNG) only reproduce RunSync
// under Workers == 1.
func RunShard(g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
	if err := validate(g, nodes); err != nil {
		return Result{}, err
	}
	ctx := cfg.ctx()
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	if allDone(nodes) {
		return Result{Terminated: true}, nil
	}
	if canceled(ctx) {
		return Result{Aborted: true}, nil
	}
	n := g.N()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if cfg.ShardStats != nil {
		*cfg.ShardStats = ShardStats{Workers: workers}
	}

	// Contiguous shards: shard s owns [bounds[s], bounds[s+1]). The
	// owner array answers "which shard holds vertex v" in O(1).
	bounds := make([]int, workers+1)
	for s := 0; s <= workers; s++ {
		bounds[s] = s * n / workers
	}
	owner := make([]int32, n)
	for s := 0; s < workers; s++ {
		for u := bounds[s]; u < bounds[s+1]; u++ {
			owner[u] = int32(s)
		}
	}

	// The reliable fast path expands records to neighbors at merge
	// time; a fault injector forces per-delivery filtering at fan-out,
	// where the per-receiver Drop verdicts are decided.
	expand := cfg.Fault == nil
	var segs shardSegments
	if expand {
		segs = buildShardSegments(g, owner, workers)
	}

	// out[s][d] buffers shard s's records addressed to shard d. Buckets
	// are truncated lazily: each worker remembers which of its buckets
	// it filled (touched[s]) and clears exactly those at its next step.
	out := make([][][]shardDelivery, workers)
	for s := range out {
		out[s] = make([][]shardDelivery, workers)
	}
	touched := make([][]int32, workers)

	// srcLists[d] is the ascending list of source shards with a
	// non-empty bucket for destination d this round. The coordinator
	// rebuilds it between the step and merge barriers from the touched
	// lists, so merge workers skip empty buckets entirely instead of
	// scanning all workers² of them.
	srcLists := make([][]int32, workers)
	var usedDsts []int32

	observing := cfg.Observe != nil
	stats := make([]shardStatus, workers)
	cmd := make([]chan int, workers)
	rep := make([]chan struct{}, workers)
	for s := 0; s < workers; s++ {
		cmd[s] = make(chan int, 1)
		rep[s] = make(chan struct{}, 1)
	}

	for s := 0; s < workers; s++ {
		go func(s int) {
			lo, hi := bounds[s], bounds[s+1]
			size := hi - lo
			// Double-buffered inbox arenas plus the counting scratch,
			// all worker-local: the only cross-worker traffic is the
			// out buckets, synchronized by the phase barriers.
			cur := shardInbox{off: make([]int32, size+1)}
			nxt := shardInbox{off: make([]int32, size+1)}
			cnt := make([]int32, size)
			myOut := out[s]
			var tl []int32
			var sorted []msg.Message
			for {
				c := <-cmd[s]
				switch {
				case c >= 0: // step phase for round c
					var st shardStatus
					st.done = true
					for _, d := range tl {
						myOut[d] = myOut[d][:0]
					}
					tl = tl[:0]
					for u := lo; u < hi; u++ {
						inbox := cur.buf[cur.off[u-lo]:cur.off[u-lo+1]]
						msgs := canonicalOutbox(nodes[u].Step(c, inbox), &sorted)
						if len(msgs) == 0 {
							continue
						}
						st.messages += int64(len(msgs))
						if expand {
							deg := int64(g.Degree(u))
							usegs := segs.segs[segs.segOf[u]:segs.segOf[u+1]]
							for _, m := range msgs {
								sz := int64(m.Size())
								st.bytes += sz
								st.deliveries += deg
								st.records += int64(len(usegs))
								for _, sg := range usegs {
									if len(myOut[sg.dst]) == 0 {
										tl = append(tl, sg.dst)
									}
									myOut[sg.dst] = append(myOut[sg.dst], shardDelivery{lo: sg.lo, hi: sg.hi, m: m})
								}
								if observing {
									k := &st.kinds[m.Kind]
									k.Messages++
									k.Bytes += sz
									k.Deliveries += deg
								}
							}
						} else {
							for _, m := range msgs {
								sz := int64(m.Size())
								st.bytes += sz
								var delivered int64
								for _, v := range g.Neighbors(u) {
									if cfg.Fault.Drop(c, m, v) {
										continue
									}
									d := owner[v]
									if len(myOut[d]) == 0 {
										tl = append(tl, d)
									}
									myOut[d] = append(myOut[d], shardDelivery{lo: int32(v), m: m})
									delivered++
								}
								st.deliveries += delivered
								st.records += delivered
								if observing {
									k := &st.kinds[m.Kind]
									k.Messages++
									k.Bytes += sz
									k.Deliveries += delivered
								}
							}
						}
					}
					// Done is evaluated here, after the shard's steps and
					// before any next-round delivery — the same evaluation
					// point as RunSync.
					for u := lo; u < hi && st.done; u++ {
						st.done = nodes[u].Done()
					}
					stats[s] = st
					touched[s] = tl
					rep[s] <- struct{}{}
				case c == cmdMerge:
					// Two passes over this shard's incoming records: count
					// per-vertex arrivals, prefix-sum into the offset
					// table, then place messages — a dense arena fill with
					// no per-vertex slice bookkeeping.
					for i := range cnt {
						cnt[i] = 0
					}
					total := int32(0)
					for _, src := range srcLists[s] {
						for _, rec := range out[src][s] {
							if expand {
								for _, v := range segs.flat[rec.lo:rec.hi] {
									cnt[v-int32(lo)]++
								}
								total += rec.hi - rec.lo
							} else {
								cnt[rec.lo-int32(lo)]++
								total++
							}
						}
					}
					nxt.off[0] = 0
					for i := 0; i < size; i++ {
						nxt.off[i+1] = nxt.off[i] + cnt[i]
					}
					if cap(nxt.buf) < int(total) {
						nxt.buf = make([]msg.Message, total)
					} else {
						nxt.buf = nxt.buf[:total]
					}
					copy(cnt, nxt.off[:size])
					buf := nxt.buf
					for _, src := range srcLists[s] {
						for _, rec := range out[src][s] {
							if expand {
								for _, v := range segs.flat[rec.lo:rec.hi] {
									i := v - int32(lo)
									buf[cnt[i]] = rec.m
									cnt[i]++
								}
							} else {
								i := rec.lo - int32(lo)
								buf[cnt[i]] = rec.m
								cnt[i]++
							}
						}
					}
					cur, nxt = nxt, cur
					rep[s] <- struct{}{}
				default: // cmdStop
					return
				}
			}
		}(s)
	}

	broadcast := func(c int) {
		for s := 0; s < workers; s++ {
			cmd[s] <- c
		}
		if c == cmdStop {
			return
		}
		for s := 0; s < workers; s++ {
			<-rep[s]
		}
	}

	var res Result
	var records, mergeScans, mergeSkips int64
	for round := 0; round < maxRounds; round++ {
		broadcast(round)
		done := true
		var rt RoundTraffic
		for s := 0; s < workers; s++ {
			st := &stats[s]
			if !st.done {
				done = false
			}
			res.Messages += st.messages
			res.Deliveries += st.deliveries
			res.Bytes += st.bytes
			records += st.records
			if observing {
				for k := range rt.Kinds {
					rt.Kinds[k].Messages += st.kinds[k].Messages
					rt.Kinds[k].Deliveries += st.kinds[k].Deliveries
					rt.Kinds[k].Bytes += st.kinds[k].Bytes
				}
				rt.Messages += st.messages
				rt.Deliveries += st.deliveries
				rt.Bytes += st.bytes
			}
		}
		if observing {
			rt.Round = round
			cfg.Observe(rt)
		}
		res.Rounds = round + 1
		if done {
			res.Terminated = true
			break
		}
		// Cancellation point: same barrier position as the other engines
		// (after the done verdict, before the merge commits the next
		// round). The cmdStop broadcast below releases the workers, which
		// are parked on cmd here.
		if canceled(ctx) {
			res.Aborted = true
			break
		}
		if round == maxRounds-1 {
			break
		}
		// Rebuild the per-destination source lists from the touched
		// buckets. Iterating sources in ascending order keeps each list
		// sorted, which is what fixes the merge fill order.
		for _, d := range usedDsts {
			srcLists[d] = srcLists[d][:0]
		}
		usedDsts = usedDsts[:0]
		pairs := int64(0)
		for s := 0; s < workers; s++ {
			for _, d := range touched[s] {
				if len(srcLists[d]) == 0 {
					usedDsts = append(usedDsts, d)
				}
				srcLists[d] = append(srcLists[d], int32(s))
				pairs++
			}
		}
		mergeScans += pairs
		mergeSkips += int64(workers)*int64(workers) - pairs
		broadcast(cmdMerge)
	}
	broadcast(cmdStop)
	if cfg.ShardStats != nil {
		cfg.ShardStats.Records = records
		cfg.ShardStats.MergeScans = mergeScans
		cfg.ShardStats.MergeSkips = mergeSkips
	}
	return res, nil
}
