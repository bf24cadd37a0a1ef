package incsim

import (
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/simulation"
)

// Ablation: the batch IncMatch versus the naive unit loop versus full
// recomputation, at a fixed update volume — the core claim of Theorem 5.1.

func benchSetup(b *testing.B) (*graph.Graph, *Engine, []graph.Update) {
	b.Helper()
	g := generator.Synthetic(2000, 9000, generator.DefaultSchema(8), 1)
	p := generator.Pattern(g, generator.PatternParams{Nodes: 4, Edges: 5, Preds: 2, K: 1}, 3)
	e, err := New(p, g)
	if err != nil {
		b.Fatal(err)
	}
	ups := generator.Updates(g, 100, 100, 5)
	return g, e, ups
}

func BenchmarkBatchIncMatch(b *testing.B) {
	_, e, ups := benchSetup(b)
	inverse := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Batch(ups)
		e.Batch(inverse) // restore, so every iteration sees the same state
	}
}

// BenchmarkBatchIncMatchShared is BenchmarkBatchIncMatch on a shared engine:
// the overlay absorbs each batch, and the base commit the NewShared contract
// asks of the owner runs off the clock — so the gap to the owned twin is
// what the overlay costs.
func BenchmarkBatchIncMatchShared(b *testing.B) {
	g, owned, ups := benchSetup(b)
	e, err := NewShared(owned.Pattern(), g) // owned is dropped: g is the shared base from here on
	if err != nil {
		b.Fatal(err)
	}
	inverse := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range [][]graph.Update{ups, inverse} {
			e.Batch(batch)
			b.StopTimer()
			g.ApplyAll(batch) //nolint:errcheck
			b.StartTimer()
		}
	}
}

func BenchmarkNaiveIncMatchn(b *testing.B) {
	_, e, ups := benchSetup(b)
	inverse := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Apply(ups)
		e.Apply(inverse)
	}
}

func BenchmarkBatchRecomputeMatchs(b *testing.B) {
	g, e, ups := benchSetup(b)
	inverse := invert(ups)
	p := e.Pattern()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyAll(ups) //nolint:errcheck
		simulation.Maximum(p, g)
		g.ApplyAll(inverse) //nolint:errcheck
		simulation.Maximum(p, g)
	}
}

func BenchmarkUnitDelete(b *testing.B) {
	g, e, _ := benchSetup(b)
	// Pick an existing edge and toggle it.
	var u, v graph.NodeID = -1, -1
	g.Edges(func(a, c graph.NodeID) bool { u, v = a, c; return false })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Delete(u, v)
		e.Insert(u, v)
	}
}

func BenchmarkMinDeltaReduction(b *testing.B) {
	_, e, ups := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MinDelta(ups)
	}
}

func invert(ups []graph.Update) []graph.Update {
	inv := make([]graph.Update, len(ups))
	for i, up := range ups {
		inv[len(ups)-1-i] = up.Inverse()
	}
	return inv
}
