package incbsim

import (
	"testing"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
)

// TestParallelDeleteRepairEquivalence replays a degree-biased update stream
// through a serial engine and a parallel engine and demands identical
// matches after every unit update, then cross-checks the final state
// against batch recomputation.
func TestParallelDeleteRepairEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g1 := generator.Synthetic(120, 480, generator.DefaultSchema(3), seed)
		g2 := g1.Clone()
		p := generator.EmbeddedPattern(g1, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, seed)

		serial, err := New(p, g1, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := New(p, g2, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range generator.Updates(g1, 40, 40, seed+100) {
			if up.Op == graph.InsertEdge {
				serial.Insert(up.From, up.To)
				parallel.Insert(up.From, up.To)
			} else {
				serial.Delete(up.From, up.To)
				parallel.Delete(up.From, up.To)
			}
			if !serial.Result().Equal(parallel.Result()) {
				t.Fatalf("seed %d: after %v parallel result differs from serial", seed, up)
			}
			if err := parallel.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: after %v: %v", seed, up, err)
			}
		}
		want := core.MatchBFS(p, g2)
		if !parallel.Result().Equal(want) {
			t.Fatalf("seed %d: final parallel result differs from batch recomputation", seed)
		}
	}
}

// TestParallelBatchEquivalence checks the batch path with parallel repair
// against serial batch processing.
func TestParallelBatchEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g1 := generator.Synthetic(100, 400, generator.DefaultSchema(3), seed)
		g2 := g1.Clone()
		p := generator.EmbeddedPattern(g1, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, seed)
		serial, err := New(p, g1, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := New(p, g2, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		ups := generator.Updates(g1, 30, 30, seed+200)
		serial.Batch(ups)
		parallel.Batch(ups)
		if !serial.Result().Equal(parallel.Result()) {
			t.Fatalf("seed %d: parallel batch result differs from serial", seed)
		}
	}
}
