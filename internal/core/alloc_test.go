package core

import (
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/rng"
)

// Allocation budgets for one coloring of a fixed graph and seed on
// RunSync. Allocation counts are deterministic up to a few map-growth
// allocations, so these gates do not flake; they catch per-round
// garbage (discarded invitation splits, per-call set slices, inbox
// copies) creeping back into Step or the engine. Each ceiling is the
// count measured with go1.24 on linux/amd64 plus about 10%:
//
//	ColorEdges   40,525 allocs (≈12.7 per edge; 99,361 before the
//	             per-node scratch buffers and outbox canonicalization)
//	ColorStrong 245,884 allocs (≈38.6 per arc; 600,193 before)
const (
	colorEdgesAllocCeiling  = 44_500
	colorStrongAllocCeiling = 270_000
)

// allocGraph is the fixed input of the budgets: ER n=400, average
// degree 16 (m = 3184), the densest cell of the paper's Algorithm 1
// experiments.
func allocGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyiAvgDegree(rng.New(1), 400, 16)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestColorEdgesAllocBudget(t *testing.T) {
	g := allocGraph(t)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ColorEdges(g, Options{Seed: 7}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ColorEdges: %.0f allocs per coloring (%.1f per edge)", allocs, allocs/float64(g.M()))
	if allocs > colorEdgesAllocCeiling {
		t.Fatalf("ColorEdges made %.0f allocs per coloring, ceiling %d", allocs, colorEdgesAllocCeiling)
	}
}

func TestColorStrongAllocBudget(t *testing.T) {
	d := graph.NewSymmetric(allocGraph(t))
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ColorStrong(d, Options{Seed: 7}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ColorStrong: %.0f allocs per coloring (%.1f per arc)", allocs, allocs/float64(d.A()))
	if allocs > colorStrongAllocCeiling {
		t.Fatalf("ColorStrong made %.0f allocs per coloring, ceiling %d", allocs, colorStrongAllocCeiling)
	}
}
