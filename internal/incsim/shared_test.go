package incsim

import (
	"reflect"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/rel"
	"gpm/internal/simulation"
)

// TestSharedEngineMatchesOwned drives an owned engine and a shared engine
// (base + overlay) with identical batch streams, committing each batch to
// the shared base after the repair as the NewShared contract requires, and
// checks deltas, results and the batch recomputation all agree.
func TestSharedEngineMatchesOwned(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := generator.Synthetic(80, 320, generator.DefaultSchema(3), seed)
		p := generator.Pattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, seed)
		base := g.Clone()
		owned, err := New(p, g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewShared(p, base)
		if err != nil {
			t.Fatal(err)
		}
		shared.ReadGraph(func(g graph.View) {
			if ov, ok := g.(*graph.Overlay); !ok || ov.Base() != graph.View(base) {
				t.Fatal("shared engine must read through an overlay on the base it was given")
			}
		})
		if !owned.Result().Equal(shared.Result()) {
			t.Fatalf("seed %d: initial results diverge", seed)
		}

		ups := generator.Updates(g, 40, 40, seed+10)
		for i := 0; i < len(ups); i += 7 {
			end := min(i+7, len(ups))
			batch := ups[i:end]
			_, d1 := owned.BatchDelta(batch)
			_, d2 := shared.BatchDelta(batch)
			if !reflect.DeepEqual(d1, d2) {
				t.Fatalf("seed %d batch %d: deltas diverge: %v vs %v", seed, i, d1, d2)
			}
			// The shared contract: the base owner commits the batch before
			// the next write.
			if _, err := base.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
			if !owned.Result().Equal(shared.Result()) {
				t.Fatalf("seed %d batch %d: results diverge", seed, i)
			}
		}
		if want := simulation.Maximum(p, base); !shared.Result().Equal(want) {
			t.Fatalf("seed %d: shared engine diverges from batch recomputation", seed)
		}
	}
}

// TestSharedEngineUnitUpdates exercises the unit Insert/Delete paths in
// shared mode: every unit write is immediately committed to the base, and
// the accumulated deltas must keep reproducing Result().
func TestSharedEngineUnitUpdates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
		p := generator.Pattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, seed)
		base := g.Clone()
		owned, err := New(p, g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewShared(p, base)
		if err != nil {
			t.Fatal(err)
		}
		acc := shared.Result().Clone()
		for _, up := range generator.Updates(g, 30, 30, seed+20) {
			var da, db rel.Delta
			if up.Op == graph.InsertEdge {
				_, da = owned.InsertDelta(up.From, up.To)
				_, db = shared.InsertDelta(up.From, up.To)
			} else {
				_, da = owned.DeleteDelta(up.From, up.To)
				_, db = shared.DeleteDelta(up.From, up.To)
			}
			if !reflect.DeepEqual(da, db) {
				t.Fatalf("seed %d: unit deltas diverge after %v", seed, up)
			}
			if _, err := base.Apply(up); err != nil {
				t.Fatal(err)
			}
			db.Apply(acc)
			if !acc.Equal(shared.Result()) {
				t.Fatalf("seed %d: accumulated shared deltas diverge after %v", seed, up)
			}
		}
		if !owned.Result().Equal(shared.Result()) {
			t.Fatalf("seed %d: final results diverge", seed)
		}
	}
}
