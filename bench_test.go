// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 8). Each benchmark runs the corresponding experiment driver at
// the quick scale; `go test -bench=. -benchmem` therefore reproduces the
// whole study, and cmd/gpbench prints the same rows at any scale. Key
// series values are attached as custom metrics so regressions in the
// *shape* (who wins, by what factor) are visible, not just wall time.
package gpm_test

import (
	"io"
	"sync"
	"testing"

	"gpm/internal/distance"
	"gpm/internal/exp"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/landmark"
)

func benchCfg() exp.Config {
	cfg := exp.Default()
	cfg.Scale = 0.02 // keep every figure regeneration in the seconds range
	return cfg
}

func benchFigure(b *testing.B, driver func(exp.Config) exp.Table) {
	b.Helper()
	cfg := benchCfg()
	var rows int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := driver(cfg)
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// --- Exp-1/Exp-2 of Section 8.1: matching (Figs. 16-17) ---

func BenchmarkFig16a_Effectiveness(b *testing.B)      { benchFigure(b, exp.Fig16a) }
func BenchmarkFig16b_MatchVsVF2(b *testing.B)         { benchFigure(b, exp.Fig16b) }
func BenchmarkFig16c_MatchCounts(b *testing.B)        { benchFigure(b, exp.Fig16c) }
func BenchmarkFig17a_OraclesYouTube(b *testing.B)     { benchFigure(b, exp.Fig17a) }
func BenchmarkFig17b_OraclesCitation(b *testing.B)    { benchFigure(b, exp.Fig17b) }
func BenchmarkFig17c_PatternScalability(b *testing.B) { benchFigure(b, exp.Fig17c) }
func BenchmarkFig17d_GraphScalability(b *testing.B)   { benchFigure(b, exp.Fig17d) }

// --- Exp-1 of Section 8.2: incremental simulation (Fig. 18) ---

func BenchmarkFig18a_IncSimInsert(b *testing.B)   { benchFigure(b, exp.Fig18a) }
func BenchmarkFig18b_IncSimDelete(b *testing.B)   { benchFigure(b, exp.Fig18b) }
func BenchmarkFig18c_IncSimYouTube(b *testing.B)  { benchFigure(b, exp.Fig18c) }
func BenchmarkFig18d_IncSimCitation(b *testing.B) { benchFigure(b, exp.Fig18d) }

// --- Exp-2 of Section 8.2: incremental bounded simulation (Fig. 19) ---

func BenchmarkFig19a_IncBSimInsert(b *testing.B)   { benchFigure(b, exp.Fig19a) }
func BenchmarkFig19b_IncBSimDelete(b *testing.B)   { benchFigure(b, exp.Fig19b) }
func BenchmarkFig19c_IncBSimYouTube(b *testing.B)  { benchFigure(b, exp.Fig19c) }
func BenchmarkFig19d_IncBSimCitation(b *testing.B) { benchFigure(b, exp.Fig19d) }

// --- Exp-3 of Section 8.2: optimizations (Fig. 20) ---

func BenchmarkFig20a_MinDelta(b *testing.B)      { benchFigure(b, exp.Fig20a) }
func BenchmarkFig20b_LandmarkSpace(b *testing.B) { benchFigure(b, exp.Fig20b) }
func BenchmarkFig20c_UnitLMvsBatch(b *testing.B) { benchFigure(b, exp.Fig20c) }
func BenchmarkFig20d_IncLMvsBatch(b *testing.B)  { benchFigure(b, exp.Fig20d) }
func BenchmarkFig20e_IncLMBoundK(b *testing.B)   { benchFigure(b, exp.Fig20e) }
func BenchmarkFig20f_IncLMvsNaive(b *testing.B)  { benchFigure(b, exp.Fig20f) }

// --- Section 1 summary table: boundedness witnesses ---

func BenchmarkTable1_UnboundednessWitnesses(b *testing.B) { benchFigure(b, exp.Table1Witnesses) }

// BenchmarkAllFigures regenerates the entire evaluation in one go — the
// `gpbench -all` path.
func BenchmarkAllFigures(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exp.All(cfg, io.Discard)
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
