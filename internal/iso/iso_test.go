package iso

import (
	"math/rand"
	"testing"

	"gpm/internal/fixtures"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

func TestEnumerateTriangle(t *testing.T) {
	// Pattern: directed triangle a→b→c→a. Graph: one matching triangle.
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	c := p.AddNode(pattern.Label("c"))
	p.AddEdge(a, b, 1)
	p.AddEdge(b, c, 1)
	p.AddEdge(c, a, 1)

	g := graph.New()
	ga := g.AddNode(graph.NewTuple("label", `"a"`))
	gb := g.AddNode(graph.NewTuple("label", `"b"`))
	gc := g.AddNode(graph.NewTuple("label", `"c"`))
	g.AddEdge(ga, gb)
	g.AddEdge(gb, gc)
	g.AddEdge(gc, ga)

	ems := Enumerate(p, g, 0)
	if len(ems) != 1 {
		t.Fatalf("found %d embeddings, want 1", len(ems))
	}
	if ems[0][a] != ga || ems[0][b] != gb || ems[0][c] != gc {
		t.Fatalf("embedding = %v", ems[0])
	}
}

func TestEnumerateInjective(t *testing.T) {
	// Pattern a→a (two distinct a-nodes): a single self-loop node must not
	// match (injectivity), but two distinct nodes with an edge must.
	p := pattern.New()
	u1 := p.AddNode(pattern.Label("a"))
	u2 := p.AddNode(pattern.Label("a"))
	p.AddEdge(u1, u2, 1)

	g := graph.New()
	x := g.AddNode(graph.NewTuple("label", `"a"`))
	g.AddEdge(x, x)
	if Has(p, g) {
		t.Fatal("self-loop should not satisfy a 2-node pattern (bijection)")
	}
	y := g.AddNode(graph.NewTuple("label", `"a"`))
	g.AddEdge(x, y)
	if Count(p, g) != 1 {
		t.Fatalf("Count = %d, want 1", Count(p, g))
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := generator.RandomGraph(8, 14, 2, seed)
		p := generator.RandomPattern(3, 3, 2, 1, seed+100)
		got := Enumerate(p, g, 0)
		want := enumerateBrute(p, g)
		if len(got) != len(want) {
			t.Fatalf("seed %d: VF2 found %d, brute force %d", seed, len(got), len(want))
		}
		if !sameEmbeddings(got, want) {
			t.Fatalf("seed %d: VF2 found %v, brute force %v", seed, got, want)
		}
	}
}

func TestEnumerateLimit(t *testing.T) {
	g := generator.RandomGraph(10, 30, 1, 5)
	p := generator.RandomPattern(2, 1, 1, 1, 6)
	all := Enumerate(p, g, 0)
	if len(all) < 2 {
		t.Skip("workload too sparse for limit test")
	}
	if got := Enumerate(p, g, 1); len(got) != 1 {
		t.Fatalf("limit 1 returned %d", len(got))
	}
}

func TestDrugRingHasNoIsoMatch(t *testing.T) {
	// Example 1.1: subgraph isomorphism cannot identify the drug ring (AM
	// and S must share a node; AM→FW spans 3 hops).
	p, g := fixtures.DrugRing(3)
	if Has(p.Normalized(), g) {
		t.Fatal("VF2 should find no match for the drug-ring pattern")
	}
}

func TestIncIsoWitness(t *testing.T) {
	// Theorem 7.1(2) family: no embedding until both adversarial edges land.
	p, g, ups := fixtures.IsoWitness(3, 2)
	e := NewEngine(p, g)
	if e.Count() != 0 {
		t.Fatalf("initial count = %d, want 0", e.Count())
	}
	e.Insert(ups.E1.From, ups.E1.To)
	if e.Count() != 0 {
		t.Fatalf("after e1: count = %d, want 0", e.Count())
	}
	e.Insert(ups.E2.From, ups.E2.To)
	if e.Count() == 0 {
		t.Fatal("after e2: embeddings should exist")
	}
	if got, want := e.Count(), Count(p, g); got != want {
		t.Fatalf("incremental count = %d, batch = %d", got, want)
	}
}

func TestIncIsoRandomizedEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := generator.RandomGraph(9, 14, 2, int64(trial)+50)
		p := generator.RandomPattern(3, 3, 2, 1, int64(trial)+150)
		e := NewEngine(p, g)
		for step := 0; step < 20; step++ {
			u, v := rng.Intn(9), rng.Intn(9)
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				e.Insert(u, v)
			} else {
				e.Delete(u, v)
			}
			if got, want := e.Count(), Count(p, g); got != want {
				t.Fatalf("trial %d step %d: incremental=%d batch=%d", trial, step, got, want)
			}
		}
	}
}

func TestDeleteDropsOnlyAffected(t *testing.T) {
	// Two disjoint matching pairs; deleting one leaves the other.
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	p.AddEdge(a, b, 1)

	g := graph.New()
	a0 := g.AddNode(graph.NewTuple("label", `"a"`))
	b0 := g.AddNode(graph.NewTuple("label", `"b"`))
	a1 := g.AddNode(graph.NewTuple("label", `"a"`))
	b1 := g.AddNode(graph.NewTuple("label", `"b"`))
	g.AddEdge(a0, b0)
	g.AddEdge(a1, b1)

	e := NewEngine(p, g)
	if e.Count() != 2 {
		t.Fatalf("count = %d, want 2", e.Count())
	}
	e.Delete(a0, b0)
	if e.Count() != 1 {
		t.Fatalf("count after delete = %d, want 1", e.Count())
	}
	em := e.Embeddings()[0]
	if em[a] != a1 || em[b] != b1 {
		t.Fatalf("surviving embedding = %v", em)
	}
}
