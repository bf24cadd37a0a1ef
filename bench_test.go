// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 8). BenchmarkFigures runs each exp.Figures entry at the quick
// scale as its own sub-benchmark, so `go test -bench=Figures -benchmem`
// reproduces the whole study and `-bench=Figures/19a` one figure;
// cmd/gpbench prints the same rows at any scale. Each sub-benchmark
// reports its row count and shape verdict as custom metrics.
package gpm_test

import (
	"sync"
	"testing"

	"gpm/internal/distance"
	"gpm/internal/exp"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/landmark"
)

// BenchmarkFigures regenerates every figure — the `gpbench -all` path.
func BenchmarkFigures(b *testing.B) {
	cfg := exp.Default()
	cfg.Scale = 0.02 // keep every figure regeneration in the seconds range
	for _, f := range exp.Figures {
		b.Run(f.Name, func(b *testing.B) {
			var t exp.Table
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t = f.Run(cfg)
			}
			shapeOK := 0.0
			if t.ShapeOK {
				shapeOK = 1
			}
			b.ReportMetric(float64(len(t.Rows)), "rows")
			b.ReportMetric(shapeOK, "shape_ok")
		})
	}
}

// --- Parallel vs serial hot paths (the internal/par subsystem) ---
//
// The oracle builds are one independent BFS per source, so the parallel
// builds should scale near-linearly with workers. Compare e.g.:
//
//	go test -bench 'NewMatrix' -benchtime 3x

var benchGraphOnce struct {
	sync.Once
	g *graph.Graph
}

// benchGraph returns a shared ≥10k-node generator graph (built once).
func benchGraph() *graph.Graph {
	benchGraphOnce.Do(func() {
		benchGraphOnce.g = generator.Synthetic(10000, 40000, generator.DefaultSchema(4), 42)
	})
	return benchGraphOnce.g
}

func benchNewMatrix(b *testing.B, workers int) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distance.NewMatrixWorkers(g, workers)
	}
}

func BenchmarkNewMatrixSerial(b *testing.B)     { benchNewMatrix(b, 1) }
func BenchmarkNewMatrixWorkers2(b *testing.B)   { benchNewMatrix(b, 2) }
func BenchmarkNewMatrixWorkers4(b *testing.B)   { benchNewMatrix(b, 4) }
func BenchmarkNewMatrixWorkersMax(b *testing.B) { benchNewMatrix(b, 0) }

func benchLandmarkNew(b *testing.B, workers int) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		landmark.NewWorkers(g, workers)
	}
}

func BenchmarkLandmarkNewSerial(b *testing.B)   { benchLandmarkNew(b, 1) }
func BenchmarkLandmarkNewWorkers4(b *testing.B) { benchLandmarkNew(b, 4) }

func benchIncBSimDeletes(b *testing.B, workers int) {
	base := generator.Synthetic(3000, 12000, generator.DefaultSchema(4), 42)
	p := generator.EmbeddedPattern(base, generator.PatternParams{Nodes: 4, Edges: 4, Preds: 1, K: 2}, 42)
	dels := generator.Updates(base, 0, 200, 43)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := base.Clone()
		eng, err := incbsim.New(p, g, incbsim.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, up := range dels {
			eng.Delete(up.From, up.To)
		}
	}
}

func BenchmarkIncBSimDeleteSerial(b *testing.B)   { benchIncBSimDeletes(b, 1) }
func BenchmarkIncBSimDeleteWorkers4(b *testing.B) { benchIncBSimDeletes(b, 4) }
