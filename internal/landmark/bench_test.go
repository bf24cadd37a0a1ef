package landmark

import (
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
)

// Ablation: landmark maintenance versus rebuild, and landmark queries
// versus plain BFS — the design trade-off of Section 6.2/6.4.

func benchGraph() *graph.Graph {
	return generator.Synthetic(1500, 6000, generator.DefaultSchema(8), 1)
}

func BenchmarkBuild(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(g)
	}
}

func BenchmarkInsLMUnit(b *testing.B) {
	g := benchGraph()
	ix := New(g)
	ups := generator.Updates(g, 1, 0, 2)
	up := ups[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(up.From, up.To)
		ix.Delete(up.From, up.To)
	}
}

func BenchmarkIncLMBatch(b *testing.B) {
	g := benchGraph()
	ix := New(g)
	ups := generator.Updates(g, 50, 50, 3)
	inv := make([]graph.Update, len(ups))
	for i, u := range ups {
		inv[len(ups)-1-i] = u.Inverse()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Batch(ups)
		ix.Batch(inv)
	}
}

func BenchmarkQueryLandmark(b *testing.B) {
	g := benchGraph()
	ix := New(g)
	n := g.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Dist(i%n, (i*31)%n)
	}
}

func BenchmarkQueryBFSBaseline(b *testing.B) {
	g := benchGraph()
	n := g.NumNodes()
	dist := make([]int, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSFrom(i%n, graph.Forward, dist)
		_ = dist[(i*31)%n]
	}
}
