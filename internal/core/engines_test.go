package core

import (
	"dima/internal/graph"
	"dima/internal/net"
)

// shardWorkers pins net.RunShard to a fixed worker count regardless of
// Options.Workers, so the equivalence tests cover multi-shard layouts
// with cross-shard merges at more than one worker count.
func shardWorkers(workers int) net.Engine {
	return func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
		cfg.Workers = workers
		return net.RunShard(g, nodes, cfg)
	}
}

// testEngines is the engine triple every cross-engine property test
// iterates: the equivalence guarantee is that all of them replay the
// sequential engine (RunShard's one-worker case) exactly.
var testEngines = []struct {
	name string
	run  net.Engine
}{
	{"sync", net.RunSync},
	{"shard-3", shardWorkers(3)},
	{"shard-7", shardWorkers(7)},
}
