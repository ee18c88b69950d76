package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"dima/internal/automaton"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

// Factories for the tcp arm of TestInboxesArriveSorted: the production
// factories with every node wrapped in orderChecked, so the node
// processes count out-of-order inboxes too.
const (
	checkedEdgeFactory   = "test/checked-edge/v1"
	checkedStrongFactory = "test/checked-strong/v1"
)

func init() {
	net.RegisterNodeFactory(checkedEdgeFactory, checkedFactory(edgeClusterFactory))
	net.RegisterNodeFactory(checkedStrongFactory, checkedFactory(strongClusterFactory))
}

func checkedFactory(f net.NodeFactory) net.NodeFactory {
	return func(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
		nodes, err := f(g, spec, lo, hi)
		return wrapChecked(nodes), err
	}
}

// orderChecked wraps a protocol node and counts the inboxes handed to
// its Step that are not in msg.Less order. The count travels in front
// of the wrapped node's state, so a tcp harvest brings it home.
type orderChecked struct {
	net.Node
	unsorted int
}

func (c *orderChecked) Step(round int, inbox []msg.Message) []msg.Message {
	if !msg.IsSorted(inbox) {
		c.unsorted++
	}
	return c.Node.Step(round, inbox)
}

func (c *orderChecked) AppendState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(c.unsorted))
	return c.Node.(net.StateNode).AppendState(buf)
}

func (c *orderChecked) RestoreState(data []byte) error {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return fmt.Errorf("core: truncated unsorted-inbox count")
	}
	c.unsorted = int(v)
	return c.Node.(net.StateNode).RestoreState(data[k:])
}

func wrapChecked(nodes []net.Node) []net.Node {
	out := make([]net.Node, len(nodes))
	for i, n := range nodes {
		out[i] = &orderChecked{Node: n}
	}
	return out
}

// checkedEngine runs inner on order-checked nodes and reports through t
// every node that saw an unsorted inbox.
func checkedEngine(t *testing.T, inner net.Engine) net.Engine {
	return func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
		wrapped := wrapChecked(nodes)
		res, err := inner(g, wrapped, cfg)
		for u, n := range wrapped {
			if k := n.(*orderChecked).unsorted; k > 0 {
				t.Errorf("node %d: %d inboxes out of msg.Less order", u, k)
			}
		}
		return res, err
	}
}

// TestInboxesArriveSorted checks the net.Node contract that every inbox
// reaches Step in msg.Less order, for Algorithms 1 and 2 on every
// engine, reliable and with loss recovery under DropRate (the recovery
// paths emit several messages per step, in no particular order). The
// colorings must also equal RunSync's.
func TestInboxesArriveSorted(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(31), 60, 6)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	algs := []struct {
		name    string
		factory string
		color   func(Options) (*Result, error)
	}{
		{"alg1", checkedEdgeFactory, func(o Options) (*Result, error) { return ColorEdges(g, o) }},
		{"alg2", checkedStrongFactory, func(o Options) (*Result, error) { return ColorStrong(d, o) }},
	}
	variants := []struct {
		name     string
		fault    net.FaultInjector
		recovery automaton.Recovery
	}{
		{name: "reliable"},
		{name: "drop-recovery", fault: net.DropRate{Seed: 8, P: 0.1}, recovery: automaton.Recovery{Enabled: true}},
	}
	for _, alg := range algs {
		for _, v := range variants {
			opt := Options{Seed: 5, Fault: v.fault, Recovery: v.recovery, MaxCompRounds: 4000}
			tcp := &net.TCPCluster{Nodes: 2, BarrierTimeout: 60 * time.Second, Stderr: os.Stderr}
			engines := []struct {
				name string
				run  net.Engine
			}{
				{"sync", net.RunSync},
				{"chan", net.RunChan},
				{"shard-1", shardWorkers(1)},
				{"shard-2", shardWorkers(2)},
				{"shard-7", shardWorkers(7)},
				{"tcp-2", tcp.Engine(net.NodeSpec{Factory: alg.factory, Spec: appendClusterOptions(nil, &opt)})},
			}
			var want []int
			for _, e := range engines {
				t.Run(alg.name+"/"+v.name+"/"+e.name, func(t *testing.T) {
					o := opt
					o.Engine = checkedEngine(t, e.run)
					res, err := alg.color(o)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = res.Colors
					} else if !slices.Equal(res.Colors, want) {
						t.Fatal("coloring differs from RunSync's")
					}
				})
			}
		}
	}
}
