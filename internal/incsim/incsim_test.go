package incsim

import (
	"math/rand"
	"testing"

	"gpm/internal/fixtures"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
	"gpm/internal/simulation"
)

// mustEngine builds an engine or fails the test.
func mustEngine(t *testing.T, p *pattern.Pattern, g *graph.Graph) *Engine {
	t.Helper()
	e, err := New(p, g)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// assertMatchesBatch verifies the engine result against batch recomputation
// and the internal invariants.
func assertMatchesBatch(t *testing.T, e *Engine, context string) {
	t.Helper()
	var want rel.Relation
	e.ReadGraph(func(g graph.View) { want = simulation.Maximum(e.Pattern(), g.(*graph.Graph)) }) // owned engines only
	if got := e.Result(); !got.Equal(want) {
		t.Fatalf("%s: incremental=%v batch=%v", context, got, want)
	}
	if err := e.checkInvariants(); err != nil {
		t.Fatalf("%s: invariant violated: %v", context, err)
	}
}

func TestNewRejectsBoundedPattern(t *testing.T) {
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	p.AddEdge(a, b, 3)
	if _, err := New(p, graph.New()); err == nil {
		t.Fatal("want error for non-normal pattern")
	}
}

func TestInitialStateMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := generator.RandomGraph(15, 30, 3, seed)
		p := generator.RandomPattern(4, 5, 3, 1, seed+100)
		e := mustEngine(t, p, g)
		assertMatchesBatch(t, e, "initial")
	}
}

func TestDeleteSSEdgeInvalidatesMatch(t *testing.T) {
	// Example 5.2 flavour: under the normalized FriendFeed pattern (every
	// bound 1), inserting Pat→Ann first gives Pat/Ann/Dan their matches;
	// deleting the ss edge Pat→Bill then strips Pat of its only biologist
	// and the invalidation cascades.
	p, g, ids, _ := fixtures.FriendFeed()
	e := mustEngine(t, p.Normalized(), g)
	e.Insert(ids["Pat"], ids["Ann"])
	assertMatchesBatch(t, e, "after enabling Pat")
	if !e.IsMatch(1, ids["Pat"]) {
		t.Fatalf("Pat should match DB: %v", e.MatchSets())
	}
	e.Delete(ids["Pat"], ids["Bill"])
	assertMatchesBatch(t, e, "after deleting (Pat, Bill)")
	if e.IsMatch(1, ids["Pat"]) {
		t.Fatal("Pat should no longer match DB")
	}
}

func TestDeleteIrrelevantEdgeTouchesNothing(t *testing.T) {
	p, g, ids, _ := fixtures.FriendFeed()
	e := mustEngine(t, p.Normalized(), g)
	e.ResetStats()
	// Tom→Ross connects a (leaf) biologist to a Med node: not an ss edge
	// for any pattern edge whose source has requirements. Removal must not
	// remove any matches.
	e.Delete(ids["Tom"], ids["Ross"])
	if got := e.Stats().Removals; got != 0 {
		t.Fatalf("irrelevant deletion removed %d matches", got)
	}
	assertMatchesBatch(t, e, "after irrelevant deletion")
}

func TestDeleteCascades(t *testing.T) {
	// Chain pattern a→b→c over a chain graph: deleting the last edge must
	// cascade the invalidation up the whole chain.
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	c := p.AddNode(pattern.Label("c"))
	p.AddEdge(a, b, 1)
	p.AddEdge(b, c, 1)

	g := graph.New()
	ga := g.AddNode(graph.NewTuple("label", `"a"`))
	gb := g.AddNode(graph.NewTuple("label", `"b"`))
	gc := g.AddNode(graph.NewTuple("label", `"c"`))
	g.AddEdge(ga, gb)
	g.AddEdge(gb, gc)

	e := mustEngine(t, p, g)
	if e.Result().Empty() {
		t.Fatal("initial match should be nonempty")
	}
	e.Delete(gb, gc)
	if !e.Result().Empty() {
		t.Fatalf("after cutting b→c: %v, want empty", e.Result())
	}
	// Internal structure: both gb (no c child) and ga (no valid b child)
	// must have been invalidated.
	if e.IsMatch(a, ga) || e.IsMatch(b, gb) {
		t.Fatal("cascade failed to invalidate ancestors")
	}
	assertMatchesBatch(t, e, "after cascade")
}

func TestInsertPromotesCandidate(t *testing.T) {
	// Under the normalized FriendFeed pattern the CTO/DB sets start empty
	// (no 1-hop DB→CTO edge exists). Inserting Pat→Ann promotes the whole
	// mutually-recursive {Ann, Pat, Dan} group — a cyclic-pattern promotion
	// — and inserting Don→Pat then promotes Don alone.
	p, g, ids, _ := fixtures.FriendFeed()
	e := mustEngine(t, p.Normalized(), g)
	if e.IsMatch(0, ids["Ann"]) {
		t.Fatal("Ann should not match CTO initially (no 1-hop DB support)")
	}
	e.Insert(ids["Pat"], ids["Ann"])
	assertMatchesBatch(t, e, "after inserting (Pat, Ann)")
	if !e.IsMatch(0, ids["Ann"]) || !e.IsMatch(1, ids["Pat"]) || !e.IsMatch(1, ids["Dan"]) {
		t.Fatalf("mutual promotion failed: %v", e.MatchSets())
	}
	if e.IsMatch(0, ids["Don"]) {
		t.Fatal("Don should not match CTO yet")
	}
	e.Insert(ids["Don"], ids["Pat"]) // e2 of Example 4.2
	assertMatchesBatch(t, e, "after inserting (Don, Pat)")
	if !e.IsMatch(0, ids["Don"]) {
		t.Fatalf("Don should match CTO after insertion: %v", e.MatchSets())
	}
}

func TestInsertCCEdgesFormSCC(t *testing.T) {
	// Proposition 5.2(3): cc edges alone add matches only inside pattern
	// SCCs. Pattern a⇄b; graph candidates a0, b0 with only one direction.
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	p.AddEdge(a, b, 1)
	p.AddEdge(b, a, 1)

	g := graph.New()
	a0 := g.AddNode(graph.NewTuple("label", `"a"`))
	b0 := g.AddNode(graph.NewTuple("label", `"b"`))
	g.AddEdge(a0, b0)

	e := mustEngine(t, p, g)
	if !e.Result().Empty() {
		t.Fatal("one-directional pair should not match a cycle pattern")
	}
	// Inserting the cc edge (b0, a0) completes the mutual support: both
	// candidates must be promoted together (the propCC case).
	e.Insert(b0, a0)
	assertMatchesBatch(t, e, "after closing the 2-cycle")
	if !e.IsMatch(a, a0) || !e.IsMatch(b, b0) {
		t.Fatalf("SCC promotion failed: %v", e.MatchSets())
	}
}

func TestUnitUpdatesMatchBatchRandomized(t *testing.T) {
	// The central property: after any update sequence, the incremental
	// result equals batch recomputation, for cyclic and acyclic patterns.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g := generator.RandomGraph(14, 20, 3, int64(trial))
		p := generator.RandomPattern(4, 5, 3, 1, int64(trial)+300)
		e := mustEngine(t, p, g)
		n := g.NumNodes()
		for step := 0; step < 40; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				e.Insert(u, v)
			} else {
				e.Delete(u, v)
			}
			assertMatchesBatch(t, e, "randomized step")
		}
	}
}

func TestUpdatesNamingUnknownNodesChangeNothing(t *testing.T) {
	g := generator.RandomGraph(15, 30, 3, 1)
	e := mustEngine(t, generator.RandomPattern(4, 5, 3, 1, 101), g)
	before := e.Result()
	if e.Insert(3, 99) || e.Delete(99, 3) || e.Insert(-1, 2) {
		t.Fatal("a unit update naming an unknown node reported a change")
	}
	if res := e.Batch([]graph.Update{graph.Insert(99, 1), graph.Delete(1, 99)}); res.Effective != 0 {
		t.Fatalf("a batch naming unknown nodes: %+v, want nothing effective", res)
	}
	if !e.Result().Equal(before) {
		t.Fatal("updates naming unknown nodes changed the match")
	}
	assertMatchesBatch(t, e, "after updates naming unknown nodes")
}

func TestSimWitnessUnboundedJump(t *testing.T) {
	// Theorem 5.1(1) witness: two unit insertions, the first changes
	// nothing, the second flips the entire graph into the match.
	p, g, ups := fixtures.SimWitness(8)
	e := mustEngine(t, p, g)
	e.Insert(ups.E1.From, ups.E1.To)
	if !e.Result().Empty() {
		t.Fatal("after e1: match should still be empty")
	}
	e.Insert(ups.E2.From, ups.E2.To)
	assertMatchesBatch(t, e, "after e2")
	if got := e.Result().Size(); got != 16 {
		t.Fatalf("after e2: %d matches, want 16", got)
	}
}

func TestBatchMatchesBatchRecomputation(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		g := generator.RandomGraph(20, 40, 3, trial)
		p := generator.RandomPattern(4, 5, 3, 1, trial+700)
		e := mustEngine(t, p, g)
		ups := generator.Updates(g, 10, 10, trial+900)
		_, effective, relevant := e.MinDelta(ups)
		res := e.Batch(ups)
		assertMatchesBatch(t, e, "after batch")
		if res.Original != len(ups) {
			t.Fatalf("Original = %d, want %d", res.Original, len(ups))
		}
		if res.Effective != effective || res.Effective > res.Original || relevant > res.Effective {
			t.Fatalf("reduction not monotone: %+v, MinDelta says %d effective, %d relevant", res, effective, relevant)
		}
	}
}

func TestBatchCancellation(t *testing.T) {
	// Insert+delete of the same edge must cancel to zero effective updates.
	g := generator.RandomGraph(10, 15, 2, 3)
	p := generator.RandomPattern(3, 3, 2, 1, 4)
	e := mustEngine(t, p, g)
	// Choose a non-edge (u, v).
	var u, v graph.NodeID = -1, -1
	for i := 0; i < 10 && u < 0; i++ {
		for j := 0; j < 10; j++ {
			if i != j && !g.HasEdge(i, j) {
				u, v = i, j
				break
			}
		}
	}
	res := e.Batch([]graph.Update{graph.Insert(u, v), graph.Delete(u, v)})
	if res.Effective != 0 {
		t.Fatalf("Effective = %d, want 0 (cancelled)", res.Effective)
	}
	assertMatchesBatch(t, e, "after cancelling batch")
}

func TestBatchMixedInsertDeleteSameSupport(t *testing.T) {
	// The minDelta cancellation case of Example 5.5: deleting one support
	// edge while inserting another for the same (pattern edge, source) must
	// keep the match stable. The repair removes the pair in its deletion
	// phase and promotes it again in its insertion phase; what must cancel
	// is the visible ΔM.
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	p.AddEdge(a, b, 1)

	g := graph.New()
	ga := g.AddNode(graph.NewTuple("label", `"a"`))
	gb1 := g.AddNode(graph.NewTuple("label", `"b"`))
	gb2 := g.AddNode(graph.NewTuple("label", `"b"`))
	g.AddEdge(ga, gb1)

	e := mustEngine(t, p, g)
	e.ResetStats()
	_, d := e.BatchDelta([]graph.Update{graph.Delete(ga, gb1), graph.Insert(ga, gb2)})
	assertMatchesBatch(t, e, "after swap batch")
	if !d.Empty() {
		t.Fatalf("swap batch churned the visible match: %+v", d)
	}
	if !e.IsMatch(a, ga) {
		t.Fatal("ga should remain a match")
	}
}

func TestApplyNaiveMatchesBatch(t *testing.T) {
	for trial := int64(30); trial < 45; trial++ {
		g := generator.RandomGraph(16, 30, 3, trial)
		p := generator.RandomPattern(4, 5, 3, 1, trial+700)
		gBatch := g.Clone()
		eNaive := mustEngine(t, p, g)
		eBatch := mustEngine(t, p, gBatch)
		ups := generator.Updates(g, 8, 8, trial+900)
		eNaive.Apply(ups)
		eBatch.Batch(ups)
		if !eNaive.Result().Equal(eBatch.Result()) {
			t.Fatalf("trial %d: naive=%v batch=%v", trial, eNaive.Result(), eBatch.Result())
		}
		assertMatchesBatch(t, eNaive, "naive")
		assertMatchesBatch(t, eBatch, "batch")
	}
}

func TestMinDeltaDoesNotMutate(t *testing.T) {
	g := generator.RandomGraph(15, 30, 3, 5)
	p := generator.RandomPattern(4, 5, 3, 1, 6)
	e := mustEngine(t, p, g)
	edgesBefore := g.NumEdges()
	matchBefore := e.Result()
	ups := generator.Updates(g, 5, 5, 7)
	original, effective, relevant := e.MinDelta(ups)
	if g.NumEdges() != edgesBefore {
		t.Fatal("MinDelta mutated the graph")
	}
	if !e.Result().Equal(matchBefore) {
		t.Fatal("MinDelta mutated the match")
	}
	if relevant > effective || effective > original || original != len(ups) {
		t.Fatalf("reduction not monotone: %d of %d -> %d -> %d", original, len(ups), effective, relevant)
	}
}

func TestMinDeltaFiltersIrrelevantLabels(t *testing.T) {
	// Updates among nodes whose labels appear nowhere in the pattern must
	// all be filtered out.
	p := pattern.New()
	a := p.AddNode(pattern.Label("a"))
	b := p.AddNode(pattern.Label("b"))
	p.AddEdge(a, b, 1)

	g := graph.New()
	ga := g.AddNode(graph.NewTuple("label", `"a"`))
	gb := g.AddNode(graph.NewTuple("label", `"b"`))
	z1 := g.AddNode(graph.NewTuple("label", `"z"`))
	z2 := g.AddNode(graph.NewTuple("label", `"z"`))
	g.AddEdge(ga, gb)

	e := mustEngine(t, p, g)
	if _, _, relevant := e.MinDelta([]graph.Update{graph.Insert(z1, z2), graph.Insert(z2, z1), graph.Insert(gb, z1)}); relevant != 0 {
		t.Fatalf("relevant = %d, want 0", relevant)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	p, g, ids, _ := fixtures.FriendFeed()
	e := mustEngine(t, p.Normalized(), g)
	e.ResetStats()
	e.Insert(ids["Pat"], ids["Ann"]) // promotes Ann, Pat, Dan
	if e.Stats().Promotions == 0 {
		t.Fatal("stats should have recorded promotions")
	}
	e.ResetStats()
	if e.Stats().Total() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestResultGraphReflectsMatch(t *testing.T) {
	p, g, ids, _ := fixtures.FriendFeed()
	e := mustEngine(t, p.Normalized(), g)
	e.Insert(ids["Pat"], ids["Ann"])
	rg := e.ResultGraph()
	if !rg.Nodes.Has(ids["Ann"]) {
		t.Fatal("result graph missing Ann")
	}
	if rg.Nodes.Has(ids["Ross"]) {
		t.Fatal("result graph contains non-match Ross")
	}
	if !rg.HasEdge(ids["Ann"], ids["Pat"]) {
		t.Fatal("result graph missing projected edge Ann→Pat")
	}
}
