package incbsim

import (
	"math/rand"
	"testing"

	"gpm/internal/core"
	"gpm/internal/fixtures"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

func mustEngine(t *testing.T, p *pattern.Pattern, g *graph.Graph, opts ...Option) *Engine {
	t.Helper()
	e, err := New(p, g, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func assertMatchesBatch(t *testing.T, e *Engine, context string) {
	t.Helper()
	want := core.Match(e.Pattern(), e.g.(*graph.Graph)) // owned engines only
	if got := e.Result(); !got.Equal(want) {
		t.Fatalf("%s: incremental=%v batch=%v", context, got, want)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariant violated: %v", context, err)
	}
}

func TestInitialStateMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := generator.RandomGraph(14, 26, 3, seed)
		p := generator.RandomPattern(4, 5, 3, 3, seed+100)
		e := mustEngine(t, p, g)
		assertMatchesBatch(t, e, "initial")
	}
}

func TestFriendFeedScenario(t *testing.T) {
	// Example 4.1/4.2: applying e1..e5 one at a time; after e2 Don becomes
	// a new CTO match.
	p, g, ids, ups := fixtures.FriendFeed()
	e := mustEngine(t, p, g)
	if e.IsMatch(0, ids["Don"]) {
		t.Fatal("Don must not match CTO initially")
	}
	for i, up := range ups {
		e.Insert(up.From, up.To)
		assertMatchesBatch(t, e, "after update "+string(rune('1'+i)))
		if i >= 1 && !e.IsMatch(0, ids["Don"]) { // e2 is ups[1]
			t.Fatalf("after e%d: Don should match CTO", i+1)
		}
	}
}

func TestCollaborationCutAndRestore(t *testing.T) {
	// Example 2.2(3): cutting (DB, Gen) empties the match; restoring it
	// brings the full match back.
	p, g, ids, cut := fixtures.Collaboration()
	e := mustEngine(t, p, g)
	if e.Result().Empty() {
		t.Fatal("initial match should be nonempty")
	}
	e.Delete(cut.From, cut.To)
	assertMatchesBatch(t, e, "after cut")
	if !e.Result().Empty() {
		t.Fatalf("after cut: %v, want empty", e.Result())
	}
	e.Insert(cut.From, cut.To)
	assertMatchesBatch(t, e, "after restore")
	if !e.IsMatch(0, ids["DB"]) {
		t.Fatal("DB should match CS again after restore")
	}
}

func TestUnitUpdatesMatchBatchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		g := generator.RandomGraph(12, 18, 3, int64(trial))
		p := generator.RandomPattern(3, 4, 3, 3, int64(trial)+200)
		e := mustEngine(t, p, g)
		n := g.NumNodes()
		for step := 0; step < 25; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				e.Insert(u, v)
			} else {
				e.Delete(u, v)
			}
			assertMatchesBatch(t, e, "randomized step")
		}
	}
}

func TestUnboundedPatternUpdates(t *testing.T) {
	// * edges: reachability semantics under churn (Fig. 11 witness family).
	p, g, ups := fixtures.BSimWitness(4, 3, 4)
	e := mustEngine(t, p, g)
	if !e.Result().Empty() {
		t.Fatal("initial match should be empty")
	}
	e.Insert(ups.E1.From, ups.E1.To)
	assertMatchesBatch(t, e, "after e1")
	if !e.Result().Empty() {
		t.Fatal("after e1 only: match should still be empty")
	}
	e.Insert(ups.E2.From, ups.E2.To)
	assertMatchesBatch(t, e, "after e2")
	if got := e.Result().Size(); got != 8 {
		t.Fatalf("after e2: %d pairs, want 8", got)
	}
	// Now cut the bridge again: everything must collapse.
	e.Delete(ups.E1.From, ups.E1.To)
	assertMatchesBatch(t, e, "after cutting e1")
	if !e.Result().Empty() {
		t.Fatal("after cutting the bridge: match should be empty")
	}
}

func TestBatchMatchesBatchRecomputation(t *testing.T) {
	for trial := int64(0); trial < 12; trial++ {
		g := generator.RandomGraph(16, 30, 3, trial+50)
		p := generator.RandomPattern(4, 5, 3, 3, trial+300)
		e := mustEngine(t, p, g)
		ups := generator.Updates(g, 6, 6, trial+400)
		e.Batch(ups)
		assertMatchesBatch(t, e, "after batch")
	}
}

func TestApplyNaiveEqualsBatch(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		g := generator.RandomGraph(14, 24, 3, trial+70)
		p := generator.RandomPattern(3, 4, 3, 3, trial+500)
		g2 := g.Clone()
		eN := mustEngine(t, p, g)
		eB := mustEngine(t, p, g2)
		ups := generator.Updates(g, 5, 5, trial+600)
		eN.Apply(ups)
		eB.Batch(ups)
		if !eN.Result().Equal(eB.Result()) {
			t.Fatalf("trial %d: naive=%v batch=%v", trial, eN.Result(), eB.Result())
		}
	}
}

func TestMatrixEngineEqualsBatch(t *testing.T) {
	for trial := int64(0); trial < 10; trial++ {
		g := generator.RandomGraph(14, 24, 3, trial+90)
		p := generator.RandomPattern(3, 4, 3, 3, trial+800)
		m, err := NewMatrix(p, g)
		if err != nil {
			t.Fatalf("NewMatrix: %v", err)
		}
		ups := generator.Updates(g, 5, 5, trial+900)
		m.Batch(ups)
		want := core.Match(p, g)
		if got := m.Result(); !got.Equal(want) {
			t.Fatalf("trial %d: matrix=%v batch=%v", trial, got, want)
		}
		if err := m.e.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMatrixEngineUnitUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := generator.RandomGraph(12, 20, 3, 123)
	p := generator.RandomPattern(3, 4, 3, 3, 456)
	m, err := NewMatrix(p, g)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		u, v := rng.Intn(12), rng.Intn(12)
		if u == v {
			continue
		}
		if rng.Intn(2) == 0 {
			m.Apply([]graph.Update{graph.Insert(u, v)})
		} else {
			m.Apply([]graph.Update{graph.Delete(u, v)})
		}
		want := core.Match(p, g)
		if got := m.Result(); !got.Equal(want) {
			t.Fatalf("step %d: matrix=%v batch=%v", step, got, want)
		}
	}
}

func TestNoOpUpdates(t *testing.T) {
	g := generator.RandomGraph(10, 15, 2, 5)
	p := generator.RandomPattern(3, 3, 2, 2, 6)
	e := mustEngine(t, p, g)
	before := e.Result()
	// Deleting a missing edge and inserting an existing one are no-ops.
	var existing [2]graph.NodeID
	g.Edges(func(u, v graph.NodeID) bool { existing = [2]graph.NodeID{u, v}; return false })
	if e.Insert(existing[0], existing[1]) {
		t.Fatal("inserting existing edge should report false")
	}
	var missing [2]graph.NodeID = [2]graph.NodeID{-1, -1}
	for i := 0; i < 10 && missing[0] < 0; i++ {
		for j := 0; j < 10; j++ {
			if i != j && !g.HasEdge(i, j) {
				missing = [2]graph.NodeID{i, j}
				break
			}
		}
	}
	if e.Delete(missing[0], missing[1]) {
		t.Fatal("deleting missing edge should report false")
	}
	if !e.Result().Equal(before) {
		t.Fatal("no-op updates changed the result")
	}
}

// A node id outside [0, |V|) matches nothing and is nobody's candidate: the
// exported readers must say so, not index past the membership table.
func TestMembershipOutsideTheGraph(t *testing.T) {
	g := generator.RandomGraph(14, 26, 3, 1)
	p := generator.RandomPattern(4, 5, 3, 3, 101)
	e := mustEngine(t, p, g)
	for _, v := range []graph.NodeID{-1, g.NumNodes(), g.NumNodes() + 1000} {
		for u := 0; u < p.NumNodes(); u++ {
			if e.IsMatch(u, v) || e.IsCandidate(u, v) {
				t.Fatalf("node %d of a %d-node graph: IsMatch(%d)=%v IsCandidate(%d)=%v", v, g.NumNodes(), u, e.IsMatch(u, v), u, e.IsCandidate(u, v))
			}
		}
	}
	for _, u := range []int{-1, p.NumNodes(), 64} {
		if e.IsMatch(u, 0) || e.IsCandidate(u, 0) {
			t.Fatalf("pattern node %d of %d: reported as matched or candidate", u, p.NumNodes())
		}
	}
}

// An owned graph may gain nodes between writes. The engine sized its
// per-node tables at build, so the next repair must grow them before its
// walks run through the new nodes.
func TestGraphGainsNodesBetweenWrites(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := generator.RandomGraph(14, 26, 3, seed)
		p := generator.RandomPattern(4, 5, 3, 3, seed+100)
		e := mustEngine(t, p, g)
		n := g.NumNodes()
		// The new node satisfies no predicate: it only carries paths.
		hub := g.AddNode(graph.Tuple{"label": graph.String("none")})
		if e.IsMatch(0, hub) || e.IsCandidate(0, hub) {
			t.Fatal("a node added after the build is matched or a candidate")
		}
		rng := rand.New(rand.NewSource(seed))
		var ups []graph.Update
		for i := 0; i < 6; i++ {
			ups = append(ups, graph.Insert(rng.Intn(n), hub), graph.Insert(hub, rng.Intn(n)))
		}
		e.Batch(ups)
		assertMatchesBatch(t, e, "after routing paths through a new node")
		e.Batch(invert(ups))
		assertMatchesBatch(t, e, "after cutting them again")
	}
}

func TestStatsAccumulate(t *testing.T) {
	p, g, _, ups := fixtures.FriendFeed()
	e := mustEngine(t, p, g)
	e.ResetStats()
	for _, up := range ups {
		e.Insert(up.From, up.To)
	}
	if e.Stats().Total() == 0 {
		t.Fatal("stats should be nonzero after updates")
	}
	if e.Stats().Promotions == 0 {
		t.Fatal("promotions should have been recorded (Don, Tom edges)")
	}
}

func TestResultGraphProjectsPaths(t *testing.T) {
	p, g, ids, _ := fixtures.FriendFeed()
	e := mustEngine(t, p, g)
	rg := e.ResultGraph()
	// CTO→DB bound 2: Ann reaches Dan via Pat, so (Ann, Dan) is a result
	// edge even though G has no such edge.
	if !rg.HasEdge(ids["Ann"], ids["Dan"]) {
		t.Fatalf("result graph should contain the 2-hop projection (Ann, Dan): %v", rg)
	}
}
