package gpm_test

import (
	"testing"

	"gpm"
)

func TestFacadeColoredMatching(t *testing.T) {
	g := gpm.NewGraph()
	a := g.AddNode(gpm.NewTuple("label", `"a"`))
	x := g.AddNode(gpm.NewTuple("label", `"x"`))
	b := g.AddNode(gpm.NewTuple("label", `"b"`))
	if _, err := g.AddLabeledEdge(a, x, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLabeledEdge(x, b, "cites"); err != nil {
		t.Fatal(err)
	}

	edge := func(to string, bound int, color string) *gpm.Pattern {
		p := gpm.NewPattern()
		pa := p.AddNode(gpm.Label("a"))
		pt := p.AddNode(gpm.Label(to))
		if err := p.AddColoredEdge(pa, pt, bound, color); err != nil {
			t.Fatal(err)
		}
		return p
	}
	matchers := map[string]func(*gpm.Pattern) gpm.Relation{
		"Match":  func(p *gpm.Pattern) gpm.Relation { return gpm.Match(p, g) },
		"matrix": func(p *gpm.Pattern) gpm.Relation { return gpm.MatchWithOracle(p, g, gpm.NewDistanceMatrix(g)) },
		"2-hop":  func(p *gpm.Pattern) gpm.Relation { return gpm.MatchWithOracle(p, g, gpm.NewTwoHop(g)) },
	}
	for name, match := range matchers {
		if r := match(edge("b", 2, "friend")); !r.Empty() {
			t.Fatalf("%s: mixed-label chain must not match: %v", name, r)
		}
		// A plain bounded edge ignores labels.
		if r := match(edge("b", 2, "")); r.Empty() {
			t.Fatalf("%s: plain pattern should match the 2-hop chain", name)
		}
	}
	// A colored normal edge needs a data edge of its color, under every
	// matcher, simulation and dual simulation included.
	matchers["simulation"] = func(p *gpm.Pattern) gpm.Relation { return gpm.MatchSimulation(p, g) }
	matchers["dual"] = func(p *gpm.Pattern) gpm.Relation { return gpm.MatchDualSimulation(p, g) }
	for name, match := range matchers {
		if r := match(edge("x", 1, "cites")); !r.Empty() {
			t.Fatalf("%s: a friend edge must not image a cites edge: %v", name, r)
		}
		if r := match(edge("x", 1, "friend")); r.Empty() {
			t.Fatalf("%s: the friend edge should image a friend edge", name)
		}
	}
	// So under subgraph isomorphism, batch and incremental.
	isos := map[string]func(*gpm.Pattern) int{
		"EnumerateIsomorphic": func(p *gpm.Pattern) int { return len(gpm.EnumerateIsomorphic(p, g, 0)) },
		"IncIso":              func(p *gpm.Pattern) int { return gpm.NewIncIsoEngine(p, g.Clone()).Count() },
	}
	for name, count := range isos {
		if n := count(edge("x", 1, "cites")); n != 0 {
			t.Fatalf("%s: a friend edge must not image a cites edge: %d embeddings", name, n)
		}
		if n := count(edge("x", 1, "friend")); n != 1 {
			t.Fatalf("%s: the friend edge should image a friend edge once, got %d embeddings", name, n)
		}
	}
}

func TestFacadeColoredRejectedByEngines(t *testing.T) {
	g := gpm.NewGraph()
	g.AddNode(gpm.NewTuple("label", `"a"`))
	g.AddNode(gpm.NewTuple("label", `"b"`))
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("a"))
	b := p.AddNode(gpm.Label("b"))
	if err := p.AddColoredEdge(a, b, 1, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := gpm.NewIncSimEngine(p, g.Clone()); err == nil {
		t.Fatal("incsim must reject colored patterns")
	}
	if _, err := gpm.NewIncBSimEngine(p, g.Clone()); err == nil {
		t.Fatal("incbsim must reject colored patterns")
	}
}

func TestFacadeDualSimulation(t *testing.T) {
	g := gpm.NewGraph()
	a0 := g.AddNode(gpm.NewTuple("label", `"a"`))
	b0 := g.AddNode(gpm.NewTuple("label", `"b"`))
	c0 := g.AddNode(gpm.NewTuple("label", `"c"`))
	b1 := g.AddNode(gpm.NewTuple("label", `"b"`))
	g.AddEdge(a0, b0)
	g.AddEdge(c0, b1) // b1 has no a-parent

	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("a"))
	b := p.AddNode(gpm.Label("b"))
	p.AddEdge(a, b, 1)

	plain := gpm.MatchSimulation(p, g)
	dual := gpm.MatchDualSimulation(p, g)
	if !plain[b].Has(b1) {
		t.Fatal("plain simulation should admit b1")
	}
	if dual[b].Has(b1) {
		t.Fatal("dual simulation must prune b1")
	}
	if !dual[a].Has(a0) || !dual[b].Has(b0) {
		t.Fatalf("dual lost the witness: %v", dual)
	}
}

func TestFacadeWeightedMatrixOracle(t *testing.T) {
	// The weighted Floyd–Warshall oracle plugged into Match (the remark
	// after Theorem 3.1): with unit weights it agrees with plain Match.
	g := gpm.NewGraph()
	a := g.AddNode(gpm.NewTuple("label", `"a"`))
	x := g.AddNode(gpm.NewTuple("label", `"x"`))
	b := g.AddNode(gpm.NewTuple("label", `"b"`))
	g.AddEdge(a, x)
	g.AddEdge(x, b)

	p := gpm.NewPattern()
	pa := p.AddNode(gpm.Label("a"))
	pb := p.AddNode(gpm.Label("b"))
	p.AddEdge(pa, pb, 2)

	want := gpm.Match(p, g)
	got := gpm.MatchWithOracle(p, g, gpm.NewWeightedMatrix(g, func(u, v gpm.NodeID) float64 { return 1 }))
	if !got.Equal(want) {
		t.Fatalf("weighted(1) = %v, plain = %v", got, want)
	}
}
