package exp

// Drivers for Section 8.2 Exp-1 and Exp-2: incremental simulation versus
// its batch counterpart and HORNSAT (Fig. 18), and incremental bounded
// simulation versus batch and the matrix baseline (Fig. 19).

import (
	"fmt"
	"slices"
	"time"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/hornsat"
	"gpm/internal/incbsim"
	"gpm/internal/incsim"
	"gpm/internal/pattern"
	"gpm/internal/simulation"
)

// simContenders measures one update batch for each Fig. 18 contender,
// starting every contender from an identical (graph, match) state.
//   - Matchs: batch recomputation on the updated graph
//   - IncMatchn: naive one-at-a-time incremental
//   - IncMatch: batch incremental with minDelta
//   - HORNSAT: Shukla et al. re-propagation (skipped when cfg says so)
func simContenders(cfg Config, g *graph.Graph, p *pattern.Pattern, ups []graph.Update) (dBatch, dNaive, dInc, dHorn time.Duration, hornRan bool) {
	// Matchs: apply updates to a clone, recompute from scratch.
	gBatch := g.Clone()
	dBatch = timeIt(func() {
		gBatch.ApplyAll(ups) //nolint:errcheck
		simulation.Maximum(p, gBatch)
	})

	gN := g.Clone()
	eN, err := incsim.New(p, gN)
	if err != nil {
		panic(err)
	}
	dNaive = timeIt(func() { eN.Apply(ups) })

	gI := g.Clone()
	eI, err := incsim.New(p, gI)
	if err != nil {
		panic(err)
	}
	dInc = timeIt(func() { eI.Batch(ups) })

	if !cfg.SkipSlowBaselines {
		gH := g.Clone()
		eH, err := hornsat.New(p, gH)
		if err != nil {
			panic(err)
		}
		dHorn = timeIt(func() { eH.Apply(ups) })
		hornRan = true
		if !eH.Result().Equal(eI.Result()) {
			panic("exp: HORNSAT result diverged from IncMatch")
		}
	}
	if !eN.Result().Equal(eI.Result()) {
		panic("exp: IncMatchn result diverged from IncMatch")
	}
	return dBatch, dNaive, dInc, dHorn, hornRan
}

// figIncSim renders one Fig. 18 panel: the contenders across a sweep of
// update sizes (positive = insertions, negative = deletions).
func figIncSim(cfg Config, title string, g *graph.Graph, deltas []int) Table {
	t := Table{
		Title:   title,
		Columns: []string{"|ΔG|", "Matchs", "IncMatchn", "IncMatch", "HORNSAT"},
	}
	p := generator.Pattern(g, generator.PatternParams{Nodes: 4, Edges: 5, Preds: 2, K: 1}, cfg.Seed+11)
	t.ShapeOK = true
	for _, d := range deltas {
		var ups []graph.Update
		if d >= 0 {
			ups = generator.Updates(g, d, 0, cfg.Seed+int64(d))
		} else {
			ups = generator.Updates(g, 0, -d, cfg.Seed+int64(-d))
		}
		// Real update streams carry churn; a quarter of the stream is
		// inverted again within the same batch, which minDelta cancels and
		// the naive engine pays for twice.
		for _, up := range ups[:len(ups)/4] {
			ups = append(ups, up.Inverse())
		}
		// Each cell is the median of simRepeats measurements, every one from
		// a fresh copy of the same (graph, match) state: the rows are a few
		// hundred microseconds at bench scale and single shots of them flap.
		// HORNSAT, the slow contender, is measured in the first only.
		var batch, naive, inc []time.Duration
		var dHorn time.Duration
		hornRan := false
		for r := 0; r < simRepeats; r++ {
			once := cfg
			once.SkipSlowBaselines = cfg.SkipSlowBaselines || r > 0
			dBatch, dNaive, dInc, dH, ran := simContenders(once, g, p, ups)
			batch, naive, inc = append(batch, dBatch), append(naive, dNaive), append(inc, dInc)
			if ran {
				dHorn, hornRan = dH, true
			}
		}
		dBatch, dNaive, dInc := median(batch), median(naive), median(inc)
		if dInc > dNaive || (4*len(ups) <= g.NumEdges() && dInc > dBatch) {
			t.ShapeOK = false
		}
		horn := "skipped"
		if hornRan {
			horn = fmtDuration(dHorn)
		}
		t.AddRow(len(ups), dBatch, dNaive, dInc, horn)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("graph: %d nodes, %d edges; each cell the median of %d runs", g.NumNodes(), g.NumEdges(), simRepeats))
	t.Shape = "IncMatch ≤ IncMatchn on every row, IncMatch ≤ Matchs on every row with |ΔG| ≤ 25% |E| (paper: IncMatch < IncMatchn < HORNSAT; IncMatch beats Matchs for ΔG ≲ 30%)"
	return t
}

// simRepeats is the number of measurements behind each cell of Fig. 18.
const simRepeats = 5

// median returns the middle value of ds, which it sorts.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Fig18a: incremental simulation, edge insertions on synthetic data
// (paper: 17k nodes, |E| 78k→108k in 3k steps).
func Fig18a(cfg Config) Table {
	g := cfg.synthetic(17000, 78000)
	base := scaled(3000, cfg.Scale, 20)
	var deltas []int
	for i := 1; i <= 5; i++ {
		deltas = append(deltas, i*2*base/2)
	}
	return figIncSim(cfg, "Fig 18(a): IncSim insertions on synthetic", g, deltas)
}

// Fig18b: incremental simulation, edge deletions on synthetic data.
func Fig18b(cfg Config) Table {
	g := cfg.synthetic(17000, 108000)
	base := scaled(3000, cfg.Scale, 20)
	var deltas []int
	for i := 1; i <= 5; i++ {
		deltas = append(deltas, -i*base)
	}
	return figIncSim(cfg, "Fig 18(b): IncSim deletions on synthetic", g, deltas)
}

// Fig18c: incremental simulation on the evolving YouTube graph.
func Fig18c(cfg Config) Table {
	g := cfg.youtube()
	base := scaled(2000, cfg.Scale, 15)
	return figIncSim(cfg, "Fig 18(c): IncSim on YouTube (insertions)", g,
		[]int{base, 2 * base, 3 * base, 4 * base, 5 * base})
}

// Fig18d: incremental simulation on the evolving Citation graph.
func Fig18d(cfg Config) Table {
	g := cfg.citation()
	base := scaled(2000, cfg.Scale, 15)
	return figIncSim(cfg, "Fig 18(d): IncSim on Citation (insertions)", g,
		[]int{base, 2 * base, 3 * base, 4 * base, 5 * base})
}

// bsimContenders measures one update batch for each Fig. 19 contender.
//   - Matchbs: batch bounded-simulation recomputation (Match via BFS)
//   - IncBMatchm: the distance-matrix baseline of Fan et al. 2010
//   - IncBMatch: the landmark/affected-area incremental algorithm
func bsimContenders(cfg Config, g *graph.Graph, p *pattern.Pattern, ups []graph.Update) (dBatch, dMatrix, dInc time.Duration, matrixRan bool) {
	// Matchbs recomputes from scratch including the all-pairs distance
	// matrix — line 1 of algorithm Match (Fig. 3), as in Fan et al. 2010.
	gBatch := g.Clone()
	dBatch = timeIt(func() {
		gBatch.ApplyAll(ups) //nolint:errcheck
		core.MatchMatrix(p, gBatch)
	})

	gI := g.Clone()
	eI, err := incbsim.New(p, gI)
	if err != nil {
		panic(err)
	}
	dInc = timeIt(func() { eI.Batch(ups) })

	if !cfg.SkipSlowBaselines {
		gM := g.Clone()
		eM, err := incbsim.NewMatrix(p, gM)
		if err != nil {
			panic(err)
		}
		dMatrix = timeIt(func() { eM.Batch(ups) })
		matrixRan = true
		if !eM.Result().Equal(eI.Result()) {
			panic("exp: IncBMatchm result diverged from IncBMatch")
		}
	}
	return dBatch, dMatrix, dInc, matrixRan
}

// figIncBSim renders one Fig. 19 panel.
func figIncBSim(cfg Config, title string, g *graph.Graph, deltas []int, k int) Table {
	t := Table{
		Title:   title,
		Columns: []string{"|ΔG|", "Matchbs", "IncBMatchm", "IncBMatch"},
	}
	p := generator.DAGPattern(g, generator.PatternParams{Nodes: 4, Edges: 5, Preds: 2, K: k}, cfg.Seed+13)
	t.ShapeOK = true
	for _, d := range deltas {
		var ups []graph.Update
		if d >= 0 {
			ups = generator.Updates(g, d, 0, cfg.Seed+int64(d))
		} else {
			ups = generator.Updates(g, 0, -d, cfg.Seed+int64(-d))
		}
		dBatch, dMatrix, dInc, matrixRan := bsimContenders(cfg, g, p, ups)
		if 10*len(ups) <= g.NumEdges() && dInc > dBatch {
			t.ShapeOK = false
		}
		mtx := "skipped"
		if matrixRan {
			mtx = fmtDuration(dMatrix)
		}
		t.AddRow(len(ups), dBatch, mtx, dInc)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("graph: %d nodes, %d edges; DAG pattern k=%d", g.NumNodes(), g.NumEdges(), k))
	t.Shape = "IncBMatch ≤ Matchbs on every row with |ΔG| ≤ 10% |E| (paper: IncBMatch < IncBMatchm; IncBMatch beats Matchbs for small ΔG)"
	return t
}

// Fig19a: incremental bounded simulation, insertions on synthetic data.
func Fig19a(cfg Config) Table {
	g := cfg.synthetic(17000, 98000)
	base := scaled(1000, cfg.Scale, 8)
	return figIncBSim(cfg, "Fig 19(a): IncBSim insertions on synthetic", g,
		[]int{base, 2 * base, 3 * base, 4 * base, 5 * base}, 3)
}

// Fig19b: incremental bounded simulation, deletions on synthetic data.
func Fig19b(cfg Config) Table {
	g := cfg.synthetic(17000, 108000)
	base := scaled(1000, cfg.Scale, 8)
	return figIncBSim(cfg, "Fig 19(b): IncBSim deletions on synthetic", g,
		[]int{-base, -2 * base, -3 * base, -4 * base, -5 * base}, 3)
}

// Fig19c: incremental bounded simulation on YouTube.
func Fig19c(cfg Config) Table {
	g := cfg.youtube()
	base := scaled(1000, cfg.Scale, 8)
	return figIncBSim(cfg, "Fig 19(c): IncBSim on YouTube (insertions)", g,
		[]int{base, 2 * base, 3 * base, 4 * base, 5 * base}, 3)
}

// Fig19d: incremental bounded simulation on Citation.
func Fig19d(cfg Config) Table {
	g := cfg.citation()
	base := scaled(1000, cfg.Scale, 8)
	return figIncBSim(cfg, "Fig 19(d): IncBSim on Citation (insertions)", g,
		[]int{base, 2 * base, 3 * base, 4 * base, 5 * base}, 3)
}
