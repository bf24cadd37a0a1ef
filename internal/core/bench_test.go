package core

import (
	"testing"

	"gpm/internal/distance"
	"gpm/internal/generator"
)

// Ablation: the three distance oracles behind Match (the design choice of
// Fig. 17(a,b)), measured with the oracle build amortized out so the
// per-match cost is visible.

func benchOracle(b *testing.B, build func() distance.Oracle) {
	g := generator.YouTube(0.02, 1)
	p := generator.Pattern(g, generator.PatternParams{Nodes: 4, Edges: 6, Preds: 2, K: 3}, 7)
	oracle := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Match(p, g, WithOracle(oracle))
	}
}

func BenchmarkMatchOracleMatrix(b *testing.B) {
	g := generator.YouTube(0.02, 1)
	benchOracle(b, func() distance.Oracle { return distance.NewMatrix(g) })
}

func BenchmarkMatchOracleTwoHop(b *testing.B) {
	g := generator.YouTube(0.02, 1)
	benchOracle(b, func() distance.Oracle { return distance.NewTwoHop(g) })
}

func BenchmarkMatchOracleBFS(b *testing.B) {
	g := generator.YouTube(0.02, 1)
	benchOracle(b, func() distance.Oracle { return distance.NewBFS(g) })
}

// Ablation: bound size. Larger k widens every desc/anc search.
func BenchmarkMatchBoundK(b *testing.B) {
	g := generator.YouTube(0.02, 1)
	for _, k := range []int{1, 2, 4} {
		p := generator.Pattern(g, generator.PatternParams{Nodes: 4, Edges: 5, Preds: 2, K: k}, 7)
		b.Run(map[int]string{1: "k=1", 2: "k=2", 4: "k=4"}[k], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatchBFS(p, g)
			}
		})
	}
}

// Baseline sanity: Match against the naive definitional fixpoint.
func BenchmarkMatchVsNaive(b *testing.B) {
	g := generator.RandomGraph(60, 150, 3, 1)
	p := generator.RandomPattern(4, 5, 3, 3, 2)
	b.Run("Match", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatchBFS(p, g)
		}
	})
	b.Run("NaiveBounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NaiveBounded(p, g)
		}
	})
}
