package incbsim

import (
	"slices"
	"testing"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Ablation: incremental bounded matching versus the matrix baseline versus
// batch recomputation — the Fig. 19 design space at micro scale.

func benchSetup(b *testing.B) (*graph.Graph, []graph.Update) {
	b.Helper()
	g := generator.Synthetic(800, 3600, generator.DefaultSchema(8), 1)
	ups := generator.Updates(g, 25, 25, 2)
	return g, ups
}

func benchPattern(g *graph.Graph) generator.PatternParams {
	return generator.PatternParams{Nodes: 4, Edges: 5, Preds: 2, K: 3}
}

func BenchmarkIncBMatchBatch(b *testing.B) {
	g, ups := benchSetup(b)
	p := generator.DAGPattern(g, benchPattern(g), 3)
	e, err := New(p, g)
	if err != nil {
		b.Fatal(err)
	}
	inv := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Batch(ups)
		e.Batch(inv)
	}
}

func BenchmarkIncBMatchMatrixBaseline(b *testing.B) {
	g, ups := benchSetup(b)
	p := generator.DAGPattern(g, benchPattern(g), 3)
	m, err := NewMatrix(p, g)
	if err != nil {
		b.Fatal(err)
	}
	inv := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Batch(ups)
		m.Batch(inv)
	}
}

func BenchmarkBatchRecomputeMatchbs(b *testing.B) {
	g, ups := benchSetup(b)
	p := generator.DAGPattern(g, benchPattern(g), 3)
	inv := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyAll(ups) //nolint:errcheck
		core.MatchMatrix(p, g)
		g.ApplyAll(inv) //nolint:errcheck
		core.MatchMatrix(p, g)
	}
}

// The engine-batch shape of the repo benchmark (bench/gate.json): n=2000,
// m=8000, 5 labels, the k=3 triangle, batches of 5 % of |E|.
func batch5pctSetup(tb testing.TB) (*pattern.Pattern, *graph.Graph, []graph.Update) {
	tb.Helper()
	g := generator.Synthetic(2000, 8000, generator.DefaultSchema(5), 1)
	return trianglePattern(tb), g, generator.Updates(g, 200, 200, 2)
}

func trianglePattern(tb testing.TB) *pattern.Pattern {
	tb.Helper()
	p := pattern.New()
	for _, l := range []string{"L1", "L2", "L3"} {
		p.AddNode(pattern.Label(l))
	}
	for _, e := range [][3]int{{0, 1, 3}, {1, 2, 2}, {0, 2, 1}} {
		if err := p.AddEdge(e[0], e[1], e[2]); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

func BenchmarkIncBMatchBatch5pct(b *testing.B) {
	p, g, ups := batch5pctSetup(b)
	e, err := New(p, g)
	if err != nil {
		b.Fatal(err)
	}
	inv := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Batch(ups)
		e.Batch(inv)
	}
}

// BenchmarkIncBMatchBatch5pctShared is the same batch on a shared engine:
// the overlay absorbs it, and the base commit the NewShared contract asks
// of the owner runs off the clock — so the gap to the owned twin is what
// the overlay costs.
func BenchmarkIncBMatchBatch5pctShared(b *testing.B) {
	p, g, ups := batch5pctSetup(b)
	e, err := NewShared(p, g)
	if err != nil {
		b.Fatal(err)
	}
	inv := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range [][]graph.Update{ups, inv} {
			e.Batch(batch)
			b.StopTimer()
			g.ApplyAll(batch) //nolint:errcheck
			b.StartTimer()
		}
	}
}

// BenchmarkIncBMatchUnit8 is the engine-unit shape of the repo benchmark:
// n=20000, m=80000, the k=3 triangle, batches of 4 insertions and 4
// deletions, each followed by its inverse so that the graph stays put. The
// shared engine's base commits run off the clock.
func BenchmarkIncBMatchUnit8(b *testing.B) {
	g := generator.Synthetic(20000, 80000, generator.DefaultSchema(5), 1)
	batches := make([][]graph.Update, 64)
	for i := range batches {
		batches[i] = generator.Updates(g, 4, 4, int64(i+2))
	}
	for _, mode := range []string{"owned", "shared"} {
		b.Run(mode, func(b *testing.B) {
			base := g.Clone()
			var e *Engine
			var err error
			if mode == "shared" {
				e, err = NewShared(trianglePattern(b), base)
			} else {
				e, err = New(trianglePattern(b), base)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ups := batches[i%len(batches)]
				for _, batch := range [][]graph.Update{ups, invert(ups)} {
					e.Batch(batch)
					if mode == "shared" {
						b.StopTimer()
						base.ApplyAll(batch) //nolint:errcheck
						b.StartTimer()
					}
				}
			}
		})
	}
}

func BenchmarkMatchbsRecompute5pct(b *testing.B) {
	p, g, ups := batch5pctSetup(b)
	inv := invert(ups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyAll(ups) //nolint:errcheck
		core.Match(p, g)
		g.ApplyAll(inv) //nolint:errcheck
		core.Match(p, g)
	}
}

// TestBatchAllocations guards the per-batch repair's allocation budget: the
// per-update sweeps it replaced allocated ~37 000 objects per 400-update
// batch (a map per source per update); the repair, its cascade and its
// promotion keep their state in reused scratch, so what is left is the
// change-set, the netted batch and the reported delta. The second case cuts
// 200 edges and puts them back, so that its insertion phase has a closure to
// promote.
func TestBatchAllocations(t *testing.T) {
	for _, restore := range []bool{false, true} {
		p, g, ups := batch5pctSetup(t)
		if restore {
			ups = slices.DeleteFunc(ups, func(up graph.Update) bool { return up.Op == graph.InsertEdge })
		}
		e, err := New(p, g, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		inv := invert(ups)
		e.Batch(ups) // size the scratch
		e.Batch(inv)
		if st := e.Stats(); restore && (st.Promotions == 0 || st.Promotions != st.Removals) {
			t.Fatalf("cut and restore: %d removals, %d promotions", st.Removals, st.Promotions)
		}
		allocs := testing.AllocsPerRun(5, func() {
			e.Batch(ups)
			e.Batch(inv)
		})
		if allocs > 200 { // 50 and 32 when written
			t.Fatalf("restore=%v: a %d-update batch and its inverse allocate %.0f objects, want <= 200", restore, len(ups), allocs)
		}
	}
}

func invert(ups []graph.Update) []graph.Update {
	inv := make([]graph.Update, len(ups))
	for i, up := range ups {
		inv[len(ups)-1-i] = up.Inverse()
	}
	return inv
}
