package core

import (
	"math/rand"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

func TestMatchColoredRequiresUniformChain(t *testing.T) {
	// Pattern a →(friend, ≤2) b. Data: a0 -friend-> x -friend-> b0 matches;
	// a1 -friend-> y -cites-> b1 does not (mixed chain).
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	if err := p.AddColoredEdge(a, b, 2, "friend"); err != nil {
		t.Fatal(err)
	}

	g := graph.New()
	a0 := g.AddNode(graph.NewTuple("label", `"a"`))
	x := g.AddNode(graph.NewTuple("label", `"x"`))
	b0 := g.AddNode(graph.NewTuple("label", `"b"`))
	a1 := g.AddNode(graph.NewTuple("label", `"a"`))
	y := g.AddNode(graph.NewTuple("label", `"x"`))
	b1 := g.AddNode(graph.NewTuple("label", `"b"`))
	mustLabeled(t, g, a0, x, "friend")
	mustLabeled(t, g, x, b0, "friend")
	mustLabeled(t, g, a1, y, "friend")
	mustLabeled(t, g, y, b1, "cites")

	r := Match(p, g)
	if !r[a].Has(a0) {
		t.Fatalf("a0 should match via the friend chain: %v", r)
	}
	if r[a].Has(a1) {
		t.Fatalf("a1 must not match via a mixed chain: %v", r)
	}
	if !r[b].Has(b0) || !r[b].Has(b1) {
		// b is a leaf pattern node: both b-nodes satisfy it.
		t.Fatalf("match(b) = %v", r[b])
	}
	if !Holds(p, g, r) {
		t.Fatal("result violates colored bounded simulation")
	}
}

func TestMatchColoredBoundRespected(t *testing.T) {
	// friend-chain of length 3 with bound 2: no match.
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	if err := p.AddColoredEdge(a, b, 2, "friend"); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	a0 := g.AddNode(graph.NewTuple("label", `"a"`))
	x1 := g.AddNode(graph.NewTuple("label", `"x"`))
	x2 := g.AddNode(graph.NewTuple("label", `"x"`))
	b0 := g.AddNode(graph.NewTuple("label", `"b"`))
	mustLabeled(t, g, a0, x1, "friend")
	mustLabeled(t, g, x1, x2, "friend")
	mustLabeled(t, g, x2, b0, "friend")
	if r := Match(p, g); !r.Empty() {
		t.Fatalf("3-hop chain under bound 2: %v, want empty", r)
	}
	// Raising the bound to 3 matches.
	p2 := pattern.New()
	a2 := p2.AddNode(pattern.Label("a"))
	b2 := p2.AddNode(pattern.Label("b"))
	if err := p2.AddColoredEdge(a2, b2, 3, "friend"); err != nil {
		t.Fatal(err)
	}
	if r := Match(p2, g); r.Empty() {
		t.Fatal("3-hop chain under bound 3 should match")
	}
}

func TestMatchColoredEqualsPlainWhenAllEdgesOneColor(t *testing.T) {
	// If every data edge carries color c, colored matching with c equals
	// plain matching (the color constraint is vacuous).
	for trial := 0; trial < 10; trial++ {
		g := generator.RandomGraph(12, 24, 2, int64(trial))
		plain := generator.RandomPattern(3, 4, 2, 3, int64(trial)+50)
		colored := plain.Clone()
		colorize(t, g, colored, int64(trial), "c")
		if !Match(colored, g).Equal(Match(plain, g)) {
			t.Fatalf("trial %d: uniform coloring changed the match", trial)
		}
	}
}

func TestMatchColoredCascade(t *testing.T) {
	// A two-level colored pattern: removing support must cascade exactly as
	// in plain matching. a →friend b →friend c over a chain missing the
	// final friend edge.
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	c := p.AddNode(pattern.Label("c"))
	if err := p.AddColoredEdge(a, b, 1, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddColoredEdge(b, c, 1, "friend"); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	ga := g.AddNode(graph.NewTuple("label", `"a"`))
	gb := g.AddNode(graph.NewTuple("label", `"b"`))
	gc := g.AddNode(graph.NewTuple("label", `"c"`))
	mustLabeled(t, g, ga, gb, "friend")
	mustLabeled(t, g, gb, gc, "cites") // wrong relationship at the last hop
	if r := Match(p, g); !r.Empty() {
		t.Fatalf("want empty (cascade through b): %v", r)
	}
	if err := g.SetEdgeLabel(gb, gc, "friend"); err != nil {
		t.Fatal(err)
	}
	if r := Match(p, g); r.Empty() {
		t.Fatal("want full match after relabeling")
	}
}

func TestEdgeLabelLifecycle(t *testing.T) {
	g := graph.New()
	u := g.AddNode(nil)
	v := g.AddNode(nil)
	if err := g.SetEdgeLabel(u, v, "x"); err == nil {
		t.Fatal("labeling a missing edge should fail")
	}
	if _, err := g.AddLabeledEdge(u, v, "friend"); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeLabel(u, v); got != "friend" {
		t.Fatalf("EdgeLabel = %q", got)
	}
	c := g.Clone()
	if got := c.EdgeLabel(u, v); got != "friend" {
		t.Fatalf("clone lost label: %q", got)
	}
	g.RemoveEdge(u, v)
	if got := g.EdgeLabel(u, v); got != "" {
		t.Fatalf("label survived edge removal: %q", got)
	}
	if c.EdgeLabel(u, v) != "friend" {
		t.Fatal("removal leaked into clone")
	}
}

func mustLabeled(t *testing.T, g *graph.Graph, u, v graph.NodeID, label string) {
	t.Helper()
	if _, err := g.AddLabeledEdge(u, v, label); err != nil {
		t.Fatal(err)
	}
}

// colorize labels every edge of g and recolors every edge of p with a color
// drawn by seed from colors, so that a seeded property test also runs on
// colored inputs.
func colorize(t *testing.T, g *graph.Graph, p *pattern.Pattern, seed int64, colors ...string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g.Edges(func(u, v graph.NodeID) bool {
		if err := g.SetEdgeLabel(u, v, colors[rng.Intn(len(colors))]); err != nil {
			t.Fatal(err)
		}
		return true
	})
	for _, e := range p.Edges() {
		if err := p.AddColoredEdge(e.From, e.To, e.Bound, colors[rng.Intn(len(colors))]); err != nil {
			t.Fatal(err)
		}
	}
}
