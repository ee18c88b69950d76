package net_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

func init() {
	net.RegisterNodeFactory("test/reverse/v1", reverseFactory)
}

// reverseNode emits several messages per round in *reverse* msg.Less
// order, the worst case for the engines' outbox canonicalization. It
// folds every inbox into a hash and logs inbox lengths, so two runs
// agree only if every inbox matched message for message. It also counts
// the inboxes that arrived out of Less order and the rounds in which
// its previous outbox was found modified; both must stay zero on every
// engine.
type reverseNode struct {
	id, rounds int
	hash       uint64
	log        []int
	unsorted   int
	mutated    int

	lastOut, lastCopy []msg.Message
}

func reverseFactory(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
	rounds, n := binary.Uvarint(spec)
	if n <= 0 || n != len(spec) {
		return nil, fmt.Errorf("bad reverse spec")
	}
	nodes := make([]net.Node, 0, hi-lo)
	for u := lo; u < hi; u++ {
		nodes = append(nodes, &reverseNode{id: u, rounds: int(rounds)})
	}
	return nodes, nil
}

func (n *reverseNode) ID() int { return n.id }

func (n *reverseNode) Done() bool { return len(n.log) >= n.rounds }

func (n *reverseNode) Step(round int, inbox []msg.Message) []msg.Message {
	if !slices.EqualFunc(n.lastOut, n.lastCopy, messagesEqual) {
		n.mutated++
	}
	if !msg.IsSorted(inbox) {
		n.unsorted++
	}
	for _, m := range inbox {
		n.hash = rng.Mix64(n.hash ^ uint64(m.From)<<40 ^ uint64(m.Kind)<<32 ^ uint64(m.To)<<16 ^
			uint64(m.Edge)<<8 ^ uint64(m.Color) ^ uint64(m.Seq)<<48)
		for _, p := range m.Paints {
			n.hash = rng.Mix64(n.hash ^ uint64(p.Edge)<<20 ^ uint64(p.Color))
		}
	}
	n.log = append(n.log, len(inbox))
	if n.Done() {
		n.lastOut, n.lastCopy = nil, nil
		return nil
	}
	k := 1 + (n.id+round)%4
	out := make([]msg.Message, 0, k)
	for i := 0; i < k; i++ {
		m := msg.Message{
			Kind:  msg.Kind(1 + (n.id*3+round+i)%(msg.KindCount-1)),
			From:  n.id,
			To:    (n.id + i) % 5,
			Edge:  (n.id*7 + round*3 + i) % 11,
			Color: i % 2,
			Seq:   uint32(i % 3),
		}
		if i%2 == 1 {
			m.Paints = []msg.Paint{{Edge: i, Color: round}}
		}
		out = append(out, m)
	}
	msg.Sort(out)
	slices.Reverse(out)
	n.lastOut = out
	n.lastCopy = slices.Clone(out)
	return out
}

func messagesEqual(a, b msg.Message) bool { return reflect.DeepEqual(a, b) }

func (n *reverseNode) AppendState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, n.hash)
	buf = binary.AppendUvarint(buf, uint64(n.unsorted))
	buf = binary.AppendUvarint(buf, uint64(n.mutated))
	buf = binary.AppendUvarint(buf, uint64(len(n.log)))
	for _, v := range n.log {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func (n *reverseNode) RestoreState(data []byte) error {
	var vals []uint64
	for len(data) > 0 {
		v, c := binary.Uvarint(data)
		if c <= 0 {
			return fmt.Errorf("bad reverse state")
		}
		vals = append(vals, v)
		data = data[c:]
	}
	if len(vals) < 4 || uint64(len(vals)-4) != vals[3] {
		return fmt.Errorf("bad reverse state: %d values", len(vals))
	}
	n.hash, n.unsorted, n.mutated = vals[0], int(vals[1]), int(vals[2])
	n.log = n.log[:0]
	for _, v := range vals[4:] {
		n.log = append(n.log, int(v))
	}
	return nil
}

// TestReverseOutboxAllEnginesAgree runs reverseNode on every engine,
// reliable and under DropRate: each inbox must arrive in msg.Less order,
// no engine may modify a returned outbox, and the Result, round traffic
// and every node's inbox hash must equal RunSync's.
func TestReverseOutboxAllEnginesAgree(t *testing.T) {
	const rounds = 9
	g := testGraph(23)
	spec := binary.AppendUvarint(nil, rounds)
	fresh := func() []net.Node {
		nodes, err := reverseFactory(g, spec, 0, g.N())
		if err != nil {
			t.Fatal(err)
		}
		return nodes
	}
	shard := func(workers int) net.Engine {
		return func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
			cfg.Workers = workers
			return net.RunShard(g, nodes, cfg)
		}
	}
	tcp := &net.TCPCluster{Nodes: 2, BarrierTimeout: 30 * time.Second}
	engines := []struct {
		name string
		run  net.Engine
	}{
		{"sync", net.RunSync},
		{"shard-1", shard(1)},
		{"shard-2", shard(2)},
		{"shard-7", shard(7)},
		{"tcp-2", tcp.Engine(net.NodeSpec{Factory: "test/reverse/v1", Spec: spec})},
	}
	for _, fault := range []net.FaultInjector{nil, net.DropRate{Seed: 3, P: 0.25}} {
		var want []*reverseNode
		var wantRes net.Result
		var wantTraffic []net.RoundTraffic
		for _, e := range engines {
			t.Run(fmt.Sprintf("fault=%v/%s", fault != nil, e.name), func(t *testing.T) {
				nodes := fresh()
				var traffic []net.RoundTraffic
				res, err := e.run(g, nodes, net.Config{
					Fault:   fault,
					Observe: func(rt net.RoundTraffic) { traffic = append(traffic, rt) },
				})
				if err != nil {
					t.Fatal(err)
				}
				got := make([]*reverseNode, len(nodes))
				for u, nd := range nodes {
					got[u] = nd.(*reverseNode)
					if got[u].unsorted != 0 || got[u].mutated != 0 {
						t.Fatalf("node %d: %d unsorted inboxes, %d modified outboxes",
							u, got[u].unsorted, got[u].mutated)
					}
				}
				if want == nil {
					want, wantRes, wantTraffic = got, res, traffic
					return
				}
				if res != wantRes {
					t.Fatalf("Result %+v, sync %+v", res, wantRes)
				}
				if !reflect.DeepEqual(traffic, wantTraffic) {
					t.Fatal("round traffic differs from sync")
				}
				for u := range got {
					if got[u].hash != want[u].hash || !slices.Equal(got[u].log, want[u].log) {
						t.Fatalf("node %d: hash %x log %v, sync hash %x log %v",
							u, got[u].hash, got[u].log, want[u].hash, want[u].log)
					}
				}
			})
		}
	}
}
