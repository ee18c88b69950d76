// Package net provides the synchronous message-passing substrate the
// paper's model assumes (§I-C): communication proceeds in lockstep
// rounds, each vertex is a compute node, and every message a node sends
// in a round is heard by all of its neighbors (local broadcast).
//
// Four interchangeable engines execute the same Node protocol logic:
//
//   - RunSync: a deterministic sequential scheduler, used by tests,
//     benchmarks, and experiments for speed and reproducibility.
//   - RunChan: a goroutine per node with channels as links, synchronized
//     by the batch-per-round discipline — the natural Go embodiment of
//     the message-passing model.
//   - RunShard: Config.Workers goroutines, each owning a contiguous
//     vertex shard, with a deterministic two-phase merge barrier — the
//     scale engine for million-vertex graphs.
//   - RunTCP (TCPCluster.Engine): vertex shards stepped in separate OS
//     processes, with a coordinator routing every round's traffic over
//     TCP.
//
// Given nodes whose behavior is a deterministic function of (round,
// sorted inbox, per-node RNG), all engines produce identical executions;
// this equivalence is property-tested in the core package.
package net

import (
	"context"
	"fmt"

	"dima/internal/graph"
	"dima/internal/msg"
)

// Node is a synchronous protocol participant. Implementations must be
// deterministic functions of their own state, the round number, and the
// (canonically sorted) inbox; all randomness must come from a private
// generator seeded at construction.
type Node interface {
	// ID returns the vertex this node runs on.
	ID() int
	// Step executes one communication round. The inbox holds every
	// message broadcast by a neighbor in the previous round, sorted by
	// msg.Less. The returned messages are locally broadcast: delivered
	// to every neighbor at the next round. Each must carry From == ID().
	//
	// How the inbox comes to be sorted: RunSync, RunShard and the tcp
	// engine put each returned outbox into msg.Less order when it is
	// emitted (sorting a copy when the node's order differs) and append
	// deliveries in ascending sender id. Since Less orders by From
	// first, every inbox arrives sorted without a per-delivery sort.
	// RunChan, whose arrival order is nondeterministic, sorts each
	// inbox instead. Emitting messages already in Less order saves the
	// copy.
	//
	// The inbox slice is owned by the engine and reused across rounds:
	// implementations may copy Message values out of it but must not
	// retain the slice itself. The returned slice stays the node's:
	// engines read it and copy Message values out, but never write to
	// it or keep it past the round.
	Step(round int, inbox []msg.Message) []msg.Message
	// Done reports whether this node has completed all of its work and
	// flushed every message its neighbors still need.
	Done() bool
}

// FaultInjector decides per (message, receiver) whether a delivery is
// lost. The paper's model assumes reliable delivery; injectors exist so
// tests can probe behavior outside the model.
type FaultInjector interface {
	// Drop reports whether the delivery of m to vertex to in the given
	// round should be discarded.
	Drop(round int, m msg.Message, to int) bool
}

// Config controls an engine run.
type Config struct {
	// MaxRounds bounds the number of communication rounds; 0 means the
	// default of 1,000,000. If the bound is hit the run reports
	// Terminated == false rather than failing.
	MaxRounds int
	// Ctx, when non-nil, allows abandoning the run: every engine checks
	// it once per communication round, at the round barrier, and returns
	// the partial Result accumulated so far with Aborted set. Nil means
	// context.Background() (never canceled). The RunSyncCtx/RunChanCtx/
	// RunShardCtx wrappers populate it; rounds executed before the
	// cancellation are byte-identical to an uncanceled run.
	Ctx context.Context
	// Fault optionally drops deliveries. Nil means reliable delivery.
	Fault FaultInjector
	// Observe, when non-nil, receives one RoundTraffic per communication
	// round (see RoundObserver). Nil skips all per-round accounting.
	Observe RoundObserver
	// Workers is the number of shard goroutines RunShard uses; 0 means
	// runtime.GOMAXPROCS(0). RunSync and RunChan ignore it.
	Workers int
	// ShardStats, when non-nil, is filled by RunShard with internal
	// hot-path counters (buffered delivery records, merge-phase bucket
	// activity). Purely observational — the counters never influence the
	// execution — and ignored by the other engines.
	ShardStats *ShardStats
}

// ShardStats reports internal counters of one RunShard execution. The
// interesting ratio is Records / Result.Messages: on the reliable fast
// path the engine buffers one record per (message, destination shard)
// rather than one per delivery, so the ratio is bounded by the worker
// count instead of the average degree (Result.Deliveries / Messages).
type ShardStats struct {
	// Workers is the resolved worker count (after clamping to [1, N]).
	Workers int
	// Records is the number of shardDelivery records buffered between
	// the step and merge phases. Reliable runs buffer one record per
	// (message, destination shard); faulty runs one per surviving
	// delivery, so Records <= Result.Deliveries always.
	Records int64
	// MergeScans counts (source, destination) buckets actually drained
	// by merge phases; MergeSkips counts the empty buckets the non-empty
	// pair tracking let the merge phases skip. Their sum is
	// workers² × merge rounds, the cost of the old full scan.
	MergeScans, MergeSkips int64
}

// KindTraffic aggregates one message kind's traffic within a round.
type KindTraffic struct {
	// Messages counts local broadcasts sent, Deliveries counts
	// per-neighbor deliveries after fault filtering, Bytes is the total
	// encoded size of the broadcasts.
	Messages, Deliveries, Bytes int64
}

// RoundTraffic is one communication round's traffic snapshot. Traffic
// is attributed to the round in which the message was *sent* — both
// engines agree on this, so for deterministic nodes the per-round
// streams are identical between RunSync and RunChan.
type RoundTraffic struct {
	// Round is the 0-based communication round.
	Round int
	// Messages, Deliveries, and Bytes mirror the Result totals for this
	// round alone.
	Messages, Deliveries, Bytes int64
	// Kinds splits the totals by message kind, indexed by msg.Kind
	// (entry 0 is unused).
	Kinds [msg.KindCount]KindTraffic
}

// RoundObserver receives per-round traffic. Both engines invoke it from
// their coordinating goroutine, sequentially and in round order, after
// every node has executed the round.
type RoundObserver func(RoundTraffic)

const defaultMaxRounds = 1_000_000

// Result summarizes an engine run.
type Result struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Messages is the number of local broadcasts sent.
	Messages int64
	// Deliveries is the number of per-neighbor message deliveries
	// (a broadcast by a degree-d node counts d).
	Deliveries int64
	// Bytes is the total encoded size of all broadcasts.
	Bytes int64
	// Terminated reports whether every node finished within MaxRounds.
	Terminated bool
	// Aborted reports that the run's context was canceled before the
	// nodes finished: the run stopped at a round barrier and the other
	// fields describe the rounds that completed. Terminated and Aborted
	// are mutually exclusive; a run that finishes in the same round its
	// context is canceled reports Terminated.
	Aborted bool
}

// Engine runs a protocol over a topology; RunSync, RunChan, and
// RunShard satisfy it. Cancellation rides in Config.Ctx so that code
// holding an Engine value needs no second signature.
type Engine func(g *graph.Graph, nodes []Node, cfg Config) (Result, error)

// ctx returns the run's context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// canceled reports whether the run should abort. All engines call it at
// the same evaluation points — once before the first round and once per
// completed round, after the all-done check — so canceled runs produce
// identical partial Results on every engine.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func validate(g *graph.Graph, nodes []Node) error {
	if len(nodes) != g.N() {
		return fmt.Errorf("net: %d nodes for %d vertices", len(nodes), g.N())
	}
	for i, n := range nodes {
		if n == nil {
			return fmt.Errorf("net: nil node at %d", i)
		}
		if n.ID() != i {
			return fmt.Errorf("net: node at index %d reports id %d", i, n.ID())
		}
	}
	return nil
}

// canonicalOutbox returns out in msg.Less order. A node's outbox is
// almost always in that order already and is then returned as is;
// otherwise it is copied into *scratch and the copy sorted, because the
// slice belongs to the node and must not be mutated.
func canonicalOutbox(out []msg.Message, scratch *[]msg.Message) []msg.Message {
	if msg.IsSorted(out) {
		return out
	}
	*scratch = append((*scratch)[:0], out...)
	msg.Sort(*scratch)
	return *scratch
}

func allDone(nodes []Node) bool {
	for _, n := range nodes {
		if !n.Done() {
			return false
		}
	}
	return true
}

// RunSyncCtx is RunSync with an explicit context: the run stops at the
// next round barrier after ctx is canceled and returns the partial
// Result with Aborted set.
func RunSyncCtx(ctx context.Context, g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
	cfg.Ctx = ctx
	return RunSync(g, nodes, cfg)
}

// RunSync executes the protocol with a deterministic sequential
// scheduler: one goroutine, vertices stepped in id order each round.
func RunSync(g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
	if err := validate(g, nodes); err != nil {
		return Result{}, err
	}
	ctx := cfg.ctx()
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	var res Result
	// Double-buffered inboxes: the current round's inboxes are consumed
	// while the next round's fill, then the buffers swap and truncate.
	// Message values are structs, so nodes copying them out of a reused
	// slice stay valid. Vertices step in ascending id and their outboxes
	// are canonicalized, so each inbox fills in msg.Less order.
	inboxes := make([][]msg.Message, g.N())
	next := make([][]msg.Message, g.N())
	var sorted []msg.Message
	if allDone(nodes) {
		res.Terminated = true
		return res, nil
	}
	if canceled(ctx) {
		res.Aborted = true
		return res, nil
	}
	for round := 0; round < maxRounds; round++ {
		var rt RoundTraffic
		for u := 0; u < g.N(); u++ {
			out := canonicalOutbox(nodes[u].Step(round, inboxes[u]), &sorted)
			for _, m := range out {
				sz := int64(m.Size())
				res.Messages++
				res.Bytes += sz
				var delivered int64
				for _, v := range g.Neighbors(u) {
					if cfg.Fault != nil && cfg.Fault.Drop(round, m, v) {
						continue
					}
					next[v] = append(next[v], m)
					delivered++
				}
				res.Deliveries += delivered
				if cfg.Observe != nil {
					k := &rt.Kinds[m.Kind]
					k.Messages++
					k.Bytes += sz
					k.Deliveries += delivered
				}
			}
		}
		if cfg.Observe != nil {
			rt.Round = round
			for _, k := range rt.Kinds {
				rt.Messages += k.Messages
				rt.Deliveries += k.Deliveries
				rt.Bytes += k.Bytes
			}
			cfg.Observe(rt)
		}
		inboxes, next = next, inboxes
		for u := range next {
			next[u] = next[u][:0]
		}
		res.Rounds = round + 1
		if allDone(nodes) {
			res.Terminated = true
			return res, nil
		}
		if canceled(ctx) {
			res.Aborted = true
			return res, nil
		}
	}
	return res, nil
}
