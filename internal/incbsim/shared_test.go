package incbsim

import (
	"reflect"
	"testing"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
)

// TestSharedEngineMatchesOwned drives an owned engine and a shared engine
// (base + overlay) with identical batch streams, committing each batch to
// the shared base after the repair as the NewShared contract requires. The
// bounded repair interleaves old-state BFS probes with its own mutations,
// so this is the overlay's hardest client: all of it must stay private to
// the engine until the owner commits.
func TestSharedEngineMatchesOwned(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
		p := generator.Pattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, seed)
		base := g.Clone()
		owned, err := New(p, g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewShared(p, base)
		if err != nil {
			t.Fatal(err)
		}
		if shared.ov == nil || shared.ov.Base() != graph.View(base) {
			t.Fatal("shared engine must read through the base it was given")
		}
		if !owned.Result().Equal(shared.Result()) {
			t.Fatalf("seed %d: initial results diverge", seed)
		}

		ups := generator.Updates(g, 30, 30, seed+10)
		for i := 0; i < len(ups); i += 6 {
			end := min(i+6, len(ups))
			batch := ups[i:end]
			d1 := owned.BatchDelta(batch)
			d2 := shared.BatchDelta(batch)
			if !reflect.DeepEqual(d1, d2) {
				t.Fatalf("seed %d batch %d: deltas diverge: %v vs %v", seed, i, d1, d2)
			}
			if _, err := base.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
			if !owned.Result().Equal(shared.Result()) {
				t.Fatalf("seed %d batch %d: results diverge", seed, i)
			}
		}
		if want := core.Match(p, base); !shared.Result().Equal(want) {
			t.Fatalf("seed %d: shared engine diverges from batch recomputation", seed)
		}
	}
}

// TestSharedEngineUnitUpdates exercises the unit Insert/Delete repair in
// shared mode, committing each unit update to the base right after it.
func TestSharedEngineUnitUpdates(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		g := generator.Synthetic(50, 200, generator.DefaultSchema(3), seed)
		p := generator.Pattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, seed)
		base := g.Clone()
		shared, err := NewShared(p, base)
		if err != nil {
			t.Fatal(err)
		}
		acc := shared.Result().Clone()
		for _, up := range generator.Updates(g, 20, 20, seed+30) {
			if up.Op == graph.InsertEdge {
				_, delta := shared.InsertDelta(up.From, up.To)
				delta.Apply(acc)
			} else {
				_, delta := shared.DeleteDelta(up.From, up.To)
				delta.Apply(acc)
			}
			if _, err := base.Apply(up); err != nil {
				t.Fatal(err)
			}
			if !acc.Equal(shared.Result()) {
				t.Fatalf("seed %d: accumulated deltas diverge after %v", seed, up)
			}
		}
		if want := core.Match(p, base); !shared.Result().Equal(want) {
			t.Fatalf("seed %d: final result diverges from batch recomputation", seed)
		}
	}
}
