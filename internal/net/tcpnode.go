package net

import (
	"fmt"
	gonet "net"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"dima/internal/graph"
	"dima/internal/msg"
)

// NodeFactory rebuilds the protocol nodes of one vertex shard inside a
// node process: one Node per vertex in [lo, hi), each implementing
// StateNode, constructed exactly as the coordinator constructs its
// twins — same graph, same options decoded from spec, same derived RNG
// streams — so the distributed run is byte-identical to an in-process
// one. Protocol packages register their factories in init (the core
// package registers "dima/edge/v1" and "dima/strong/v1").
type NodeFactory func(g *graph.Graph, spec []byte, lo, hi int) ([]Node, error)

var (
	factoryMu     sync.RWMutex
	nodeFactories = map[string]NodeFactory{}
)

// RegisterNodeFactory makes a factory available to node processes under
// name. It panics on empty names, nil factories, and duplicates.
func RegisterNodeFactory(name string, f NodeFactory) {
	if name == "" || f == nil {
		panic("net: RegisterNodeFactory with empty name or nil factory")
	}
	factoryMu.Lock()
	defer factoryMu.Unlock()
	if _, dup := nodeFactories[name]; dup {
		panic("net: duplicate node factory " + name)
	}
	nodeFactories[name] = f
}

func lookupNodeFactory(name string) (NodeFactory, bool) {
	factoryMu.RLock()
	defer factoryMu.RUnlock()
	f, ok := nodeFactories[name]
	return f, ok
}

func registeredFactoryNames() []string {
	factoryMu.RLock()
	defer factoryMu.RUnlock()
	names := make([]string, 0, len(nodeFactories))
	for name := range nodeFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MaybeNodeMain turns the current process into a cluster node when the
// DIMA_NODE_* environment says the coordinator spawned it for that; it
// then never returns (os.Exit). In a plain invocation it is a no-op.
// Binaries usable as spawn-mode node processes (and test binaries whose
// tests run RunTCP with an empty Command) must call it first thing in
// main / TestMain, before flag parsing.
func MaybeNodeMain() {
	addr := os.Getenv(envNodeAddr)
	if addr == "" {
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dimanode:", err)
		os.Exit(1)
	}
	shard, err := strconv.Atoi(os.Getenv(envNodeShard))
	if err != nil {
		fail(fmt.Errorf("bad %s: %v", envNodeShard, err))
	}
	shards, err := strconv.Atoi(os.Getenv(envNodeShards))
	if err != nil {
		fail(fmt.Errorf("bad %s: %v", envNodeShards, err))
	}
	token, err := strconv.ParseUint(os.Getenv(envNodeToken), 10, 64)
	if err != nil {
		fail(fmt.Errorf("bad %s: %v", envNodeToken, err))
	}
	if err := NodeMain(addr, shard, shards, token); err != nil {
		fail(err)
	}
	os.Exit(0)
}

// NodeMain dials the coordinator and runs the node side of the cluster
// protocol to completion. It is the whole life of a node process: cmd/
// dimanode calls it for externally launched nodes, MaybeNodeMain for
// spawned ones.
func NodeMain(addr string, shard, shards int, token uint64) error {
	conn, err := gonet.DialTimeout("tcp", addr, defaultBarrierTimeout)
	if err != nil {
		return fmt.Errorf("dial coordinator %s: %w", addr, err)
	}
	return ServeNode(conn, shard, shards, token)
}

// ServeNode runs the node half of the cluster protocol over conn, which
// it owns and closes. Local failures are reported to the coordinator in
// an error frame (best effort) as well as returned.
func ServeNode(conn gonet.Conn, shard, shards int, token uint64) error {
	defer conn.Close()
	if err := serveNode(conn, shard, shards, token); err != nil {
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		msg.WriteFrame(conn, frameError, []byte(err.Error()))
		return err
	}
	return nil
}

func serveNode(conn gonet.Conn, shard, shards int, token uint64) error {
	// No read deadlines here: the coordinator owns the barrier timeout,
	// and a dead coordinator closes the connection (or the kernel does),
	// which lands every blocked read on an error — a node process never
	// outlives its coordinator.
	fr := msg.NewFrameReader(conn, 0)
	hello := msg.Hello{Shard: shard, Shards: shards, Token: token}
	if err := msg.WriteFrame(conn, frameHello, hello.Append(nil)); err != nil {
		return fmt.Errorf("send hello: %w", err)
	}
	kind, payload, err := fr.Next()
	if err != nil {
		return fmt.Errorf("read welcome: %w", err)
	}
	if kind != frameWelcome {
		return fmt.Errorf("first coordinator frame is %s, want welcome", frameKindName(kind))
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	if w.shards != shards {
		return fmt.Errorf("welcome names %d shards, launched for %d", w.shards, shards)
	}
	factory, ok := lookupNodeFactory(w.factory)
	if !ok {
		return fmt.Errorf("unknown node factory %q (registered: %v)", w.factory, registeredFactoryNames())
	}
	nodes, err := factory(w.g, w.spec, w.lo, w.hi)
	if err != nil {
		return fmt.Errorf("factory %q: %w", w.factory, err)
	}
	if len(nodes) != w.hi-w.lo {
		return fmt.Errorf("factory %q built %d nodes for range [%d, %d)", w.factory, len(nodes), w.lo, w.hi)
	}
	states := make([]StateNode, len(nodes))
	for i, n := range nodes {
		sn, ok := n.(StateNode)
		if !ok || n.ID() != w.lo+i {
			return fmt.Errorf("factory %q node %d: want StateNode with id %d, got %T id %d",
				w.factory, i, w.lo+i, n, n.ID())
		}
		states[i] = sn
	}
	halo, err := newHaloInbox(w, shard)
	if err != nil {
		return err
	}
	if err := msg.WriteFrame(conn, frameReady, nil); err != nil {
		return fmt.Errorf("send ready: %w", err)
	}

	// Halo records arrive in ascending sender id (the coordinator
	// routes shard outboxes in shard order), so canonical outboxes make
	// every inbox sorted.
	var outb []broadcast
	var sorted []msg.Message
	var buf []byte
	var drops []int32
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			return fmt.Errorf("read coordinator frame: %w", err)
		}
		switch kind {
		case frameRound:
			halo.reset()
			round, err := decodeRound(payload, &drops, halo.deliver)
			if err != nil {
				return err
			}
			outb = outb[:0]
			for i, n := range nodes {
				for _, m := range canonicalOutbox(n.Step(round, halo.inboxes[i]), &sorted) {
					outb = append(outb, broadcast{from: w.lo + i, m: m})
				}
			}
			// Same evaluation point as RunShard's done verdict: after
			// every node stepped the round.
			done := true
			for _, n := range nodes {
				if !n.Done() {
					done = false
					break
				}
			}
			buf = appendOutbox(buf[:0], round, done, outb)
			if err := msg.WriteFrame(conn, frameOutbox, buf); err != nil {
				return fmt.Errorf("send outbox: %w", err)
			}
		case frameHarvest:
			if len(payload) != 0 {
				return fmt.Errorf("net: %d trailing bytes after harvest frame", len(payload))
			}
			blobs := make([][]byte, len(states))
			for i, sn := range states {
				blobs[i] = sn.AppendState(nil)
			}
			buf = appendState(buf[:0], w.lo, blobs)
			if err := msg.WriteFrame(conn, frameState, buf); err != nil {
				return fmt.Errorf("send state: %w", err)
			}
		case frameShutdown:
			if len(payload) != 0 {
				return fmt.Errorf("net: %d trailing bytes after shutdown frame", len(payload))
			}
			return nil
		default:
			return fmt.Errorf("unexpected coordinator frame %s", frameKindName(kind))
		}
	}
}

// haloInbox builds one node process's inboxes from the halo records
// of a round frame. Each record names a sender, a message and the
// sender's neighbors in this shard whose delivery was dropped; the
// message goes to every other neighbor in the sender's segment for
// this shard (the same shardSegments table the coordinator routed
// with). Every record is checked against that table, so a frame that
// does not fit this shard is rejected, never half-applied silently.
type haloInbox struct {
	segs    shardSegments
	shard   int32
	lo      int
	prev    int // sender of the previous record this round
	inboxes [][]msg.Message
}

// newHaloInbox checks the welcome's shard range against the canonical
// split and builds the routing table for it.
func newHaloInbox(w welcome, shard int) (*haloInbox, error) {
	if w.shards > w.g.N() {
		return nil, fmt.Errorf("net: welcome names %d shards for %d vertices", w.shards, w.g.N())
	}
	bounds, owner := splitShards(w.g.N(), w.shards)
	if shard < 0 || shard >= w.shards || w.lo != bounds[shard] || w.hi != bounds[shard+1] {
		return nil, fmt.Errorf("net: welcome range [%d, %d) is not shard %d of %d over %d vertices",
			w.lo, w.hi, shard, w.shards, w.g.N())
	}
	return &haloInbox{
		segs:    buildShardSegments(w.g, owner, w.shards),
		shard:   int32(shard),
		lo:      w.lo,
		inboxes: make([][]msg.Message, w.hi-w.lo),
	}, nil
}

// reset empties every inbox for a new round frame.
func (h *haloInbox) reset() {
	for i := range h.inboxes {
		h.inboxes[i] = h.inboxes[i][:0]
	}
	h.prev = 0
}

// deliver expands one halo record into the inboxes.
func (h *haloInbox) deliver(from int, m msg.Message, drops []int32) error {
	n := len(h.segs.segOf) - 1
	if from < 0 || from >= n {
		return fmt.Errorf("net: halo sender %d out of range [0, %d)", from, n)
	}
	if from < h.prev {
		return fmt.Errorf("net: halo sender %d after sender %d", from, h.prev)
	}
	h.prev = from
	var local []int32
	for _, sg := range h.segs.segs[h.segs.segOf[from]:h.segs.segOf[from+1]] {
		if sg.dst == h.shard {
			local = h.segs.flat[sg.lo:sg.hi]
			break
		}
	}
	// The drop list is an in-order subsequence of the segment: walk
	// both together, delivering every vertex the list skips.
	j := 0
	for _, d := range drops {
		for j < len(local) && local[j] != d {
			h.put(local[j], m)
			j++
		}
		if j == len(local) {
			return fmt.Errorf("net: halo from vertex %d drops vertex %d, not an in-order neighbor in this shard", from, d)
		}
		j++
	}
	if len(drops) == len(local) {
		return fmt.Errorf("net: halo from vertex %d has no surviving delivery in this shard", from)
	}
	for ; j < len(local); j++ {
		h.put(local[j], m)
	}
	return nil
}

func (h *haloInbox) put(v int32, m msg.Message) {
	i := int(v) - h.lo
	h.inboxes[i] = append(h.inboxes[i], m)
}
