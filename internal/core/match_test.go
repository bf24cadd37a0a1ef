package core

import (
	"testing"

	"gpm/internal/distance"
	"gpm/internal/fixtures"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/simulation"
)

func TestMatchDrugRing(t *testing.T) {
	// Example 2.2(1): B→boss, AM→all Ai, S→Am, FW→all W nodes.
	p, g := fixtures.DrugRing(4)
	r := Match(p, g)
	const b, am, s, fw = 0, 1, 2, 3
	if r.Empty() {
		t.Fatal("P0 should match G0")
	}
	if r[b].Len() != 1 || !r[b].Has(0) {
		t.Fatalf("match(B) = %v, want {boss}", r[b])
	}
	if r[am].Len() != 4 {
		t.Fatalf("match(AM) = %v, want all 4 AMs", r[am])
	}
	if r[s].Len() != 1 {
		t.Fatalf("match(S) = %v, want only Am", r[s])
	}
	if r[fw].Len() != 12 {
		t.Fatalf("match(FW) = %v, want all 12 workers", r[fw])
	}
}

func TestMatchDrugRingNotIsomorphic(t *testing.T) {
	// The drug ring is found by bounded simulation although AM maps to many
	// nodes and S shares its match with AM — impossible for a bijection.
	p, g := fixtures.DrugRing(3)
	r := Match(p, g)
	const am, s = 1, 2
	for v := range r[s] {
		if !r[am].Has(v) {
			t.Fatalf("S match %d should also match AM", v)
		}
	}
}

func TestMatchTeamFormation(t *testing.T) {
	// Example 2.2(1): the P1/G1 match with the dual-role (HR,SE) node.
	p, g, ids := fixtures.TeamFormation()
	r := Match(p, g)
	const a, se, hr, dm = 0, 1, 2, 3
	check := func(u int, want ...graph.NodeID) {
		t.Helper()
		if r[u].Len() != len(want) {
			t.Fatalf("match(%d) = %v, want %v", u, r[u], want)
		}
		for _, w := range want {
			if !r[u].Has(w) {
				t.Fatalf("match(%d) = %v, missing %d", u, r[u], w)
			}
		}
	}
	check(a, ids["a"])
	check(se, ids["se"], ids["hrse"])
	check(hr, ids["hr"], ids["hrse"])
	check(dm, ids["dml"], ids["dmr"])
}

func TestMatchCollaboration(t *testing.T) {
	// Example 2.2(2): CS→DB only (AI cannot reach Soc within 3 hops).
	p, g, ids, cut := fixtures.Collaboration()
	r := Match(p, g)
	const cs, bio, med, soc = 0, 1, 2, 3
	if !r[cs].Has(ids["DB"]) || r[cs].Has(ids["AI"]) {
		t.Fatalf("match(CS) = %v, want {DB} without AI", r[cs])
	}
	if !r[bio].Has(ids["Gen"]) || !r[bio].Has(ids["Eco"]) {
		t.Fatalf("match(Bio) = %v", r[bio])
	}
	if !r[med].Has(ids["Med"]) || !r[soc].Has(ids["Soc"]) {
		t.Fatalf("match(Med/Soc) = %v / %v", r[med], r[soc])
	}

	// Example 2.2(3): dropping (DB, Gen) kills the only CS match, so the
	// maximum match collapses to the empty relation.
	g.Apply(cut)
	if r2 := Match(p, g); !r2.Empty() {
		t.Fatalf("after cut, match = %v, want empty", r2)
	}
}

func TestMatchFriendFeed(t *testing.T) {
	p, g, ids, _ := fixtures.FriendFeed()
	r := Match(p, g)
	const cto, db = 0, 1
	if !r[cto].Has(ids["Ann"]) || r[cto].Has(ids["Don"]) {
		t.Fatalf("match(CTO) = %v, want Ann but not Don", r[cto])
	}
	if !r[db].Has(ids["Pat"]) || !r[db].Has(ids["Dan"]) {
		t.Fatalf("match(DB) = %v", r[db])
	}
}

func TestMatchFriendFeedAfterInsertions(t *testing.T) {
	// Example 4.1: after ΔG3, Don becomes a CTO match.
	p, g, ids, ups := fixtures.FriendFeed()
	if _, err := g.ApplyAll(ups); err != nil {
		t.Fatal(err)
	}
	r := Match(p, g)
	if !r[0].Has(ids["Don"]) {
		t.Fatalf("match(CTO) = %v, want Don added", r[0])
	}
	if r[0].Has(ids["Ross"]) {
		t.Fatal("Ross (Med) must never match CTO")
	}
}

func TestMatchOraclesAgree(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, colored := range []bool{false, true} {
			g := generator.RandomGraph(16, 32, 3, seed)
			p := generator.RandomPattern(4, 5, 3, 3, seed+500)
			if colored {
				colorize(t, g, p, seed, "", "a", "b")
			}
			bfs := MatchBFS(p, g)
			mtx := MatchMatrix(p, g)
			hop := Match(p, g, WithOracle(distance.NewTwoHop(g)))
			if !bfs.Equal(mtx) {
				t.Fatalf("seed %d colored=%v: BFS=%v matrix=%v", seed, colored, bfs, mtx)
			}
			if !bfs.Equal(hop) {
				t.Fatalf("seed %d colored=%v: BFS=%v 2-hop=%v", seed, colored, bfs, hop)
			}
		}
	}
}

func TestMatchAgainstNaiveBounded(t *testing.T) {
	for seed := int64(100); seed < 160; seed++ {
		for _, colored := range []bool{false, true} {
			g := generator.RandomGraph(12, 26, 3, seed)
			p := generator.RandomPattern(4, 6, 3, 3, seed+500)
			if colored {
				colorize(t, g, p, seed, "", "a", "b")
			}
			want := NaiveBounded(p, g)
			for name, oracle := range map[string]distance.Oracle{
				"bfs":    distance.NewBFS(g),
				"matrix": distance.NewMatrix(g),
				"2-hop":  distance.NewTwoHop(g),
			} {
				got := Match(p, g, WithOracle(oracle))
				if !got.Equal(want) {
					t.Fatalf("seed %d colored=%v %s: Match=%v naive=%v", seed, colored, name, got, want)
				}
				if !Holds(p, g, got) {
					t.Fatalf("seed %d colored=%v %s: result violates bounded simulation", seed, colored, name)
				}
			}
		}
	}
}

func TestMatchReducesToSimulationOnNormalPatterns(t *testing.T) {
	// Remark (2) of Section 2.2: simulation is bounded simulation on normal
	// patterns, colored edges included.
	for seed := int64(200); seed < 240; seed++ {
		for _, colored := range []bool{false, true} {
			g := generator.RandomGraph(15, 32, 3, seed)
			p := generator.RandomPattern(4, 5, 3, 1, seed+500)
			if colored {
				colorize(t, g, p, seed, "", "a", "b")
			}
			got := Match(p, g)
			want := simulation.Maximum(p, g)
			if !got.Equal(want) {
				t.Fatalf("seed %d colored=%v: bounded=%v simulation=%v", seed, colored, got, want)
			}
		}
	}
}

func TestMatchUnboundedEdgeIsReachability(t *testing.T) {
	// u →* t over chains: before splicing, no u-node reaches a t-node.
	p, g, ups := fixtures.BSimWitness(4, 3, 4)
	if r := Match(p, g); !r.Empty() {
		t.Fatalf("before splicing: %v, want empty", r)
	}
	g.Apply(ups.E1)
	if r := Match(p, g); !r.Empty() {
		t.Fatalf("after e1 only: %v, want empty", r)
	}
	g.Apply(ups.E2)
	r := Match(p, g)
	if r[0].Len() != 4 || r[1].Len() != 4 {
		t.Fatalf("after both: u:%v t:%v, want all 4 u-nodes and 4 t-nodes", r[0], r[1])
	}
}

func TestMatchSelfDistanceNeedsCycle(t *testing.T) {
	// When a node can only support a pattern self-edge with itself, the
	// nonempty-path semantics require a cycle within the bound: an empty
	// path never satisfies len(π) >= 1.
	selfEdge := func(bound int) *pattern.Pattern {
		p := pattern.New()
		a := p.AddNode(pattern.Label("a"))
		p.AddEdge(a, a, bound)
		return p
	}
	// n0 (label a) sits on a 2-cycle through n1 (label c, never a match).
	g := graph.New()
	n0 := g.AddNode(graph.NewTuple("label", `"a"`))
	n1 := g.AddNode(graph.NewTuple("label", `"c"`))
	g.AddEdge(n0, n1)
	g.AddEdge(n1, n0)

	if r := Match(selfEdge(2), g); !r[0].Has(n0) {
		t.Fatalf("bound 2: match = %v, want n0 (cycle length 2)", r[0])
	}
	if r := Match(selfEdge(1), g); !r.Empty() {
		t.Fatalf("bound 1: match = %v, want empty (cycle too long)", r)
	}

	// A self-loop satisfies bound 1.
	g2 := graph.New()
	s := g2.AddNode(graph.NewTuple("label", `"a"`))
	g2.AddEdge(s, s)
	if r := Match(selfEdge(1), g2); !r[0].Has(s) {
		t.Fatalf("self-loop: match = %v, want {s}", r[0])
	}
}

func TestMatchOutDegreeGuard(t *testing.T) {
	// A pattern node with children cannot match a sink node even if a
	// distance oracle would allow an unbounded wander (line 6 of Fig. 3).
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	p.AddEdge(a, b, pattern.Unbounded)

	g := graph.New()
	sink := g.AddNode(graph.NewTuple("label", `"a"`)) // sink: no out-edges
	src := g.AddNode(graph.NewTuple("label", `"a"`))
	tgt := g.AddNode(graph.NewTuple("label", `"b"`))
	g.AddEdge(src, tgt)

	r := Match(p, g)
	if r[a].Has(sink) {
		t.Fatalf("sink node matched a parent pattern node: %v", r[a])
	}
	if !r[a].Has(src) || !r[b].Has(tgt) {
		t.Fatalf("expected src/tgt match: %v", r)
	}
}

func TestMatchEmptyGraph(t *testing.T) {
	p := pattern.New()
	p.AddNode(pattern.Label("a"))
	g := graph.New()
	if r := Match(p, g); !r.Empty() {
		t.Fatalf("empty graph: %v", r)
	}
}

func TestMatchWorstCaseCyclePattern(t *testing.T) {
	// The remark after Theorem 3.1: a 2-node cycle pattern over an a-chain
	// must conclude "no match" (every chain node eventually falls out).
	p := pattern.New()
	u1 := p.AddNode(pattern.Label("a"))
	u2 := p.AddNode(pattern.Label("a"))
	p.AddEdge(u1, u2, 1)
	p.AddEdge(u2, u1, 1)
	g := graph.New()
	const k = 30
	for i := 0; i < k; i++ {
		g.AddNode(graph.NewTuple("label", `"a"`))
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	if r := Match(p, g); !r.Empty() {
		t.Fatalf("chain vs cycle pattern: %v, want empty", r)
	}
}
