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
	if err := msg.WriteFrame(conn, frameReady, nil); err != nil {
		return fmt.Errorf("send ready: %w", err)
	}

	// Deliveries arrive in ascending sender id (the coordinator routes
	// shard outboxes in shard order), so canonical outboxes make every
	// inbox sorted.
	inboxes := make([][]msg.Message, len(nodes))
	var outb []broadcast
	var sorted []msg.Message
	var buf []byte
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			return fmt.Errorf("read coordinator frame: %w", err)
		}
		switch kind {
		case frameRound:
			for i := range inboxes {
				inboxes[i] = inboxes[i][:0]
			}
			round, err := decodeRound(payload, func(to int, m msg.Message) error {
				if to < w.lo || to >= w.hi {
					return fmt.Errorf("net: delivery to vertex %d outside shard [%d, %d)", to, w.lo, w.hi)
				}
				inboxes[to-w.lo] = append(inboxes[to-w.lo], m)
				return nil
			})
			if err != nil {
				return err
			}
			outb = outb[:0]
			for i, n := range nodes {
				for _, m := range canonicalOutbox(n.Step(round, inboxes[i]), &sorted) {
					outb = append(outb, broadcast{from: w.lo + i, m: m})
				}
			}
			// Same evaluation point as RunSync's allDone: after every
			// node stepped the round.
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
