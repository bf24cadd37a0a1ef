package exp

// Driver for the shared sub-pattern evaluation network study (not a paper
// figure — it measures this implementation's RETE-style extension): as the
// number of structurally-overlapping standing patterns grows, the shared
// network's per-pattern marginal commit cost should fall well below the
// one-private-engine-per-pattern organisation, because renumbered copies
// of a pattern collapse onto one shared join node that is repaired once
// per commit.

import (
	"fmt"
	"math/rand"
	"time"

	"gpm/internal/contq"
	"gpm/internal/gdn"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/incsim"
	"gpm/internal/par"
	"gpm/internal/pattern"
)

// netRenumber relabels p by the permutation m (m[orig] = new id).
func netRenumber(p *pattern.Pattern, m []int) *pattern.Pattern {
	inv := make([]int, len(m))
	for u, c := range m {
		inv[c] = u
	}
	q := pattern.New()
	for c := range inv {
		q.AddNode(p.Pred(inv[c]))
	}
	for _, e := range p.Edges() {
		if err := q.AddColoredEdge(m[e.From], m[e.To], e.Bound, e.Color); err != nil {
			panic(err)
		}
	}
	return q
}

// netCommitCost times committing ups in ten chunks, each through commit.
func netCommitCost(ups []graph.Update, commit func([]graph.Update) error) time.Duration {
	per := (len(ups) + 9) / 10
	return timeIt(func() {
		for at := 0; at < len(ups); at += per {
			if err := commit(ups[at:min(at+per, len(ups))]); err != nil {
				panic(err)
			}
		}
	})
}

// netShared registers pats in a registry, where they share its evaluation
// network, and times the commits; it returns the network's final stats.
func netShared(base *graph.Graph, pats []*pattern.Pattern, ups []graph.Update) (time.Duration, *gdn.Stats) {
	reg := contq.New(base.Clone())
	defer reg.Close()
	for i, p := range pats {
		if err := reg.Register(fmt.Sprintf("p%03d", i), p, contq.KindSim); err != nil {
			panic(err)
		}
	}
	return netCommitCost(ups, func(c []graph.Update) error {
		_, err := reg.Apply(c)
		return err
	}), reg.Stats().Network
}

// netPrivate times the same commits over one engine per pattern, all on
// one base: each commit is netted once, repaired by every engine in
// parallel (each serial inside, as the registry's fan-out ran them), then
// applied to the base.
func netPrivate(base *graph.Graph, pats []*pattern.Pattern, ups []graph.Update) time.Duration {
	g := base.Clone()
	engs := make([]*incsim.Engine, len(pats))
	for i, p := range pats {
		var err error
		if engs[i], err = incsim.NewShared(p, g, incsim.WithWorkers(1)); err != nil {
			panic(err)
		}
	}
	return netCommitCost(ups, func(c []graph.Update) error {
		net := graph.NetUpdates(g, c)
		par.For(len(engs), 0, func(_, i int) { engs[i].BatchDelta(net) })
		_, err := g.ApplyAll(net)
		return err
	})
}

// FigNet1 measures the marginal cost of overlapping standing patterns:
// N patterns drawn as renumberings of 5 structural families, one fixed
// update stream, shared network vs private engines.
func FigNet1(cfg Config) Table {
	t := Table{
		Title:   "Net 1: marginal cost of overlapping standing patterns — shared network vs private engines",
		Columns: []string{"patterns", "shared total", "shared/pat", "private total", "private/pat", "joins", "repairs saved"},
	}
	n := scaled(10000, cfg.Scale, 120)
	m := scaled(30000, cfg.Scale, 360)
	base := generator.Synthetic(n, m, generator.DefaultSchema(4), cfg.Seed)
	nUps := scaled(2000, cfg.Scale, 60)
	ups := generator.Updates(base, nUps/2, nUps/2, cfg.Seed+7)

	const families = 5
	protos := make([]*pattern.Pattern, families)
	for f := range protos {
		protos[f] = generator.Pattern(base, generator.PatternParams{Nodes: 3 + f%3, Edges: 3 + f%3, Preds: 1, K: 1}, cfg.Seed+int64(61+f))
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 71))
	var firstPer time.Duration // shared/pat at the fewest patterns
	for i, nPats := range []int{10, 25, 50, 100} {
		pats := make([]*pattern.Pattern, nPats)
		for j := range pats {
			proto := protos[j%families]
			pats[j] = netRenumber(proto, rng.Perm(proto.NumNodes()))
		}
		dShared, ns := netShared(base, pats, ups)
		dPriv := netPrivate(base, pats, ups)
		perPat := dShared / time.Duration(nPats)
		if i == 0 {
			firstPer = perPat
		}
		t.ShapeOK = perPat < firstPer && dShared <= dPriv // the last row's verdict stands
		t.AddRow(nPats, dShared, perPat, dPriv, dPriv/time.Duration(nPats), ns.JoinNodes, ns.RepairsSaved)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d structural families; every pattern is a renumbering of one of them", families),
		"private: one incsim engine per pattern over one base, each commit netted once and fanned out over internal/par")
	t.Shape = "shared/pat at 100 patterns < at 10, and shared total ≤ private total at 100 (shared/pat falls as patterns grow, joins stay ~5; private/pat stays flat)"
	return t
}
