package incbsim

import (
	"maps"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

func labelled(g *graph.Graph, label string) graph.NodeID {
	return g.AddNode(graph.Tuple{"label": graph.String(label)})
}

func edge(t *testing.T, g *graph.Graph, u, v graph.NodeID) {
	t.Helper()
	if _, err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

// TestInsertionWalksNoMatchedSource: inserting edges only adds supports, so a
// batch of insertions among matches — every satisfying node is one, there is
// no candidate to promote — must stake, walk and rewrite nothing.
func TestInsertionWalksNoMatchedSource(t *testing.T) {
	p := pattern.New()
	a, b := p.AddNode(pattern.Label("a")), p.AddNode(pattern.Label("b"))
	for _, pe := range [][2]int{{a, b}, {b, a}} {
		if err := p.AddEdge(pe[0], pe[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	// A ring a0 → b0 → a1 → b1 → … → a0: everybody has both neighbours.
	g := graph.New()
	ring := make([]graph.NodeID, 12)
	for i := range ring {
		ring[i] = labelled(g, []string{"a", "b"}[i%2])
	}
	for i, v := range ring {
		edge(t, g, v, ring[(i+1)%len(ring)])
	}
	e := mustEngine(t, p, g)
	if got := e.Result().Size(); got != len(ring) {
		t.Fatalf("%d matched pairs on a ring of %d", got, len(ring))
	}
	var ups []graph.Update
	for i := range ring {
		ups = append(ups, graph.Insert(ring[i], ring[(i+3)%len(ring)]), graph.Insert(ring[i], ring[(i+6)%len(ring)]))
	}
	delta, st, net := e.BatchNet(ups)
	if net != len(ups) || !delta.Empty() {
		t.Fatalf("%d of %d insertions took effect, ΔM = %v", net, len(ups), delta)
	}
	if st.PairsExamined != 0 || st.WitnessUpdates != 0 {
		t.Fatalf("an insertion-only batch among matches examined %d pairs and moved %d witnesses", st.PairsExamined, st.WitnessUpdates)
	}
	assertMatchesBatch(t, e, "after the insertions")
}

// TestInsertionSeedsEveryStakedCandidate: an insertion phase seeds the
// promotion with every candidate its probes stake, not only those that gained
// a target, and leaves it to the refinement to reject the rest. Here each
// insertion gives a candidate of a a shorter path to a b it already reached
// in bound, a b that is itself no match (it has no c below it): nothing is
// gained, so nothing may change, but the promotion must have looked.
func TestInsertionSeedsEveryStakedCandidate(t *testing.T) {
	p := pattern.New()
	a, b, c := p.AddNode(pattern.Label("a")), p.AddNode(pattern.Label("b")), p.AddNode(pattern.Label("c"))
	if err := p.AddEdge(a, b, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(b, c, 1); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	x, y, z := labelled(g, "a"), labelled(g, "b"), labelled(g, "c")
	edge(t, g, x, y)
	edge(t, g, y, z) // one whole match, so that the result is not empty
	var ups []graph.Update
	for i := 0; i < 2; i++ {
		v, via, w := labelled(g, "a"), labelled(g, "m"), labelled(g, "b")
		edge(t, g, v, via)
		edge(t, g, via, w)
		ups = append(ups, graph.Insert(v, w))
	}
	e := mustEngine(t, p, g)
	before := e.Result()
	if before.Size() != 3 {
		t.Fatalf("%d matched pairs before the insertions, want 3", before.Size())
	}
	delta, st, net := e.BatchNet(ups)
	if net != len(ups) || !delta.Empty() || !e.Result().Equal(before) {
		t.Fatalf("%d of %d insertions took effect, ΔM = %v, result %v", net, len(ups), delta, e.Result())
	}
	if st.ClosureSize == 0 || st.Promotions != 0 {
		t.Fatalf("the candidates in reach of the insertions seeded no promotion, or one was promoted: %+v", st)
	}
	assertMatchesBatch(t, e, "after the insertions")
}

// TestCascadeRefindsWitness: v has two supports for its one pattern edge.
// Unmatching the one it holds as witness moves the witness to the other and
// keeps v; unmatching that one too removes v.
func TestCascadeRefindsWitness(t *testing.T) {
	p := pattern.New()
	a, b, c := p.AddNode(pattern.Label("a")), p.AddNode(pattern.Label("b")), p.AddNode(pattern.Label("c"))
	if err := p.AddEdge(a, b, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(b, c, 1); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	v := labelled(g, "a")
	support := map[graph.NodeID]graph.NodeID{} // a match of b → the match of c it hangs on
	for i := 0; i < 2; i++ {
		via, w, leaf := labelled(g, "m"), labelled(g, "b"), labelled(g, "c")
		edge(t, g, v, via)
		edge(t, g, via, w)
		edge(t, g, w, leaf)
		support[w] = leaf
	}
	e := mustEngine(t, p, g)
	const ab = 0 // the pattern edge (a, b)
	first, ok := e.wit[ab][v]
	if !ok || support[first] == 0 {
		t.Fatalf("v's witness is %d (set: %v), want one of %v", first, ok, support)
	}
	e.Delete(first, support[first])
	assertMatchesBatch(t, e, "after unmatching the witness")
	second := e.wit[ab][v]
	if !e.IsMatch(a, v) || second == first || support[second] == 0 {
		t.Fatalf("v matched: %v, witness %d after %d was unmatched, supports %v", e.IsMatch(a, v), second, first, support)
	}
	if st := e.Stats(); st.Removals != 1 || st.WitnessUpdates != 1 {
		t.Fatalf("one removal and one moved witness expected: %+v", st)
	}
	e.Delete(second, support[second])
	assertMatchesBatch(t, e, "after unmatching the second support")
	if e.IsMatch(a, v) || e.MatchSets()[a].Len() != 0 {
		t.Fatal("v still matches with no support left")
	}
	if st := e.Stats(); st.Removals != 3 || st.WitnessUpdates != 1 {
		t.Fatalf("the second support and v removed, no witness to move to: %+v", st)
	}
}

// witnessHistory is a fixed update history on the engine-batch shape (n =
// 2000, m = 8000, the k = 3 triangle): forty 8-update batches, each drawn
// against the graph as it stands, then a 5 % batch and its inverse.
func witnessHistory(t *testing.T, each func(e *Engine)) *Engine {
	t.Helper()
	p, g, big := batch5pctSetup(t)
	e := mustEngine(t, p, g, WithWorkers(1))
	for i := int64(0); i < 40; i++ {
		e.Batch(generator.Updates(g, 4, 4, 100+i))
		each(e)
	}
	e.Batch(big)
	each(e)
	e.Batch(invert(big))
	each(e)
	return e
}

// TestRebuildIsDeterministic: which witness a search finds depends on the
// order of the removals before it, so the build must not follow map order:
// two engines built from equal inputs and fed equal batches hold the same
// witnesses and report bit-identical Stats at every step.
func TestRebuildIsDeterministic(t *testing.T) {
	var stats [2][]Stats
	var engines [2]*Engine
	for run := range engines {
		engines[run] = witnessHistory(t, func(e *Engine) { stats[run] = append(stats[run], e.Stats()) })
	}
	for i := range stats[0] {
		if stats[0][i] != stats[1][i] {
			t.Fatalf("after batch %d: %+v on one engine, %+v on its twin", i, stats[0][i], stats[1][i])
		}
	}
	for ei := range engines[0].wit {
		if !maps.Equal(engines[0].wit[ei], engines[1].wit[ei]) {
			t.Fatalf("the twins hold different witnesses for pattern edge %d", ei)
		}
	}
	if err := engines[0].CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFindWalkExaminesLess: a matched source is walked until it has its
// witnesses, not over its whole ball, and not at all in an insertion phase.
// The counting core this one replaced examined parentPairsExamined pairs on
// the same history.
func TestFindWalkExaminesLess(t *testing.T) {
	const parentPairsExamined = 362550
	e := witnessHistory(t, func(*Engine) {})
	if got := e.Stats().PairsExamined; 2*got > parentPairsExamined {
		t.Fatalf("%d pairs examined, more than half of the counting core's %d", got, parentPairsExamined)
	}
}
