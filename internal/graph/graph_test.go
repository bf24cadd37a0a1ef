package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.AddNode(NewTuple("label", `"a"`))
	b := g.AddNode(NewTuple("label", `"b"`))
	c := g.AddNode(NewTuple("label", `"c"`))
	for _, e := range [][2]NodeID{{a, b}, {b, c}, {c, a}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New()
	for want := 0; want < 5; want++ {
		if got := g.AddNode(nil); got != want {
			t.Fatalf("AddNode = %d, want %d", got, want)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddEdgeRejectsUnknownNodes(t *testing.T) {
	g := New()
	g.AddNode(nil)
	if _, err := g.AddEdge(0, 7); err == nil {
		t.Fatal("AddEdge(0, 7) on a 1-node graph: want error")
	}
	if _, err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("AddEdge(-1, 0): want error")
	}
}

func TestAddEdgeIsIdempotent(t *testing.T) {
	g := New()
	g.AddNode(nil)
	g.AddNode(nil)
	added, err := g.AddEdge(0, 1)
	if err != nil || !added {
		t.Fatalf("first AddEdge = (%v, %v), want (true, nil)", added, err)
	}
	added, err = g.AddEdge(0, 1)
	if err != nil || added {
		t.Fatalf("second AddEdge = (%v, %v), want (false, nil)", added, err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestRemoveEdgeUpdatesAdjacency(t *testing.T) {
	g := buildTriangle(t)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge(0,1) = false, want true")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second RemoveEdge(0,1) = true, want false")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("HasEdge(0,1) after removal")
	}
	if g.OutDegree(0) != 0 || g.InDegree(1) != 0 {
		t.Fatalf("degrees after removal: out(0)=%d in(1)=%d, want 0, 0", g.OutDegree(0), g.InDegree(1))
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestSelfLoop(t *testing.T) {
	g := New()
	v := g.AddNode(nil)
	if _, err := g.AddEdge(v, v); err != nil {
		t.Fatalf("AddEdge self-loop: %v", err)
	}
	if !g.HasEdge(v, v) || g.OutDegree(v) != 1 || g.InDegree(v) != 1 {
		t.Fatal("self-loop not reflected in adjacency")
	}
	if !g.RemoveEdge(v, v) || g.OutDegree(v) != 0 || g.InDegree(v) != 0 {
		t.Fatal("self-loop removal broken")
	}
}

func TestBFSFromDistances(t *testing.T) {
	g := buildTriangle(t)
	dist := make([]int, g.NumNodes())
	g.BFSFrom(0, Forward, dist)
	want := []int{0, 1, 2}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
	g.BFSFrom(0, Reverse, dist)
	want = []int{0, 2, 1}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("reverse dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
}

func TestBFSFromUnreachable(t *testing.T) {
	g := New()
	g.AddNode(nil)
	g.AddNode(nil)
	dist := make([]int, 2)
	g.BFSFrom(0, Forward, dist)
	if dist[1] != Unreachable {
		t.Fatalf("dist[1] = %d, want Unreachable", dist[1])
	}
}

func TestBFSWithinRespectsBound(t *testing.T) {
	g := New()
	ids := make([]NodeID, 5)
	for i := range ids {
		ids[i] = g.AddNode(nil)
		if i > 0 {
			g.AddEdge(ids[i-1], ids[i])
		}
	}
	var seen []NodeID
	g.BFSWithin(ids[0], Forward, 2, func(v NodeID, d int) bool {
		seen = append(seen, v)
		return true
	})
	if len(seen) != 3 { // src + 2 hops
		t.Fatalf("visited %v, want 3 nodes", seen)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("removing from clone affected original")
	}
	c.AddNode(nil)
	if g.NumNodes() != 3 {
		t.Fatal("adding node to clone affected original")
	}
}

func TestSCCTriangle(t *testing.T) {
	g := buildTriangle(t)
	comp, n := g.SCC()
	if n != 1 {
		t.Fatalf("SCC count = %d, want 1", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("comp = %v, want all equal", comp)
	}
}

func TestSCCChainAndCycle(t *testing.T) {
	// 0→1→2→1 : nodes 1,2 form a cycle, 0 is its own component.
	g := New()
	for i := 0; i < 3; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	comp, n := g.SCC()
	if n != 2 {
		t.Fatalf("SCC count = %d, want 2", n)
	}
	if comp[1] != comp[2] || comp[0] == comp[1] {
		t.Fatalf("comp = %v, want {1,2} together, 0 apart", comp)
	}
	nt := g.NontrivialSCC(comp, n)
	if !nt[comp[1]] || nt[comp[0]] {
		t.Fatalf("NontrivialSCC = %v", nt)
	}
}

func TestSCCReverseTopologicalNumbering(t *testing.T) {
	// Tarjan numbering: comp[u] >= comp[v] for every edge u→v across components.
	g := New()
	for i := 0; i < 6; i++ {
		g.AddNode(nil)
	}
	edges := [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	comp, _ := g.SCC()
	g.Edges(func(u, v NodeID) bool {
		if comp[u] < comp[v] {
			t.Errorf("edge %d→%d: comp[u]=%d < comp[v]=%d", u, v, comp[u], comp[v])
		}
		return true
	})
}

func TestTopologicalRanks(t *testing.T) {
	// 0→1→2 (chain), 3→4→3 (cycle), 5→3 (reaches cycle).
	g := New()
	for i := 0; i < 6; i++ {
		g.AddNode(nil)
	}
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {3, 4}, {4, 3}, {5, 3}} {
		g.AddEdge(e[0], e[1])
	}
	r := g.TopologicalRanks()
	if r[2] != 0 {
		t.Errorf("rank(2) = %d, want 0 (leaf)", r[2])
	}
	if r[1] != 1 || r[0] != 2 {
		t.Errorf("rank(1)=%d rank(0)=%d, want 1, 2", r[1], r[0])
	}
	for _, v := range []NodeID{3, 4, 5} {
		if r[v] != RankInfinite {
			t.Errorf("rank(%d) = %d, want RankInfinite", v, r[v])
		}
	}
}

func TestIsDAGAndTopoOrder(t *testing.T) {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	if !g.IsDAG() {
		t.Fatal("diamond DAG reported cyclic")
	}
	g.AddEdge(3, 0)
	if g.IsDAG() {
		t.Fatal("cyclic graph reported as DAG")
	}
}

func TestUpdateApplyAndInverse(t *testing.T) {
	g := New()
	g.AddNode(nil)
	g.AddNode(nil)
	up := Insert(0, 1)
	changed, err := g.Apply(up)
	if err != nil || !changed {
		t.Fatalf("Apply insert = (%v, %v)", changed, err)
	}
	changed, err = g.Apply(up)
	if err != nil || changed {
		t.Fatalf("re-Apply insert = (%v, %v), want no-op", changed, err)
	}
	changed, err = g.Apply(up.Inverse())
	if err != nil || !changed {
		t.Fatalf("Apply inverse = (%v, %v)", changed, err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after undo, want 0", g.NumEdges())
	}
}

func TestApplyAllReportsEffectiveUpdates(t *testing.T) {
	g := New()
	g.AddNode(nil)
	g.AddNode(nil)
	ups := []Update{Insert(0, 1), Insert(0, 1), Delete(1, 0), Delete(0, 1)}
	eff, err := g.ApplyAll(ups)
	if err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	if len(eff) != 2 {
		t.Fatalf("effective updates = %v, want 2 entries", eff)
	}
}

// NetUpdates keeps the last operation per edge, drops what restates the
// graph, and drops an insertion that names a node the graph does not have:
// every update it returns applies.
func TestNetUpdates(t *testing.T) {
	g := New()
	for i := 0; i < 3; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1)
	ups := []Update{
		Insert(0, 1),               // restates
		Delete(1, 2),               // restates
		Insert(1, 2), Delete(1, 2), // cancels
		Delete(0, 1), Insert(0, 1), Delete(0, 1), // nets to one deletion
		Insert(2, 0),
		Insert(2, 3), Insert(-1, 0), Delete(3, 2), // no such node
	}
	net := NetUpdates(g, ups)
	if want := []Update{Delete(0, 1), Insert(2, 0)}; !slices.Equal(net, want) {
		t.Fatalf("NetUpdates = %v, want %v", net, want)
	}
	if eff, err := g.ApplyAll(net); err != nil || len(eff) != len(net) {
		t.Fatalf("ApplyAll(net) = %v, %v: a net update did not apply", eff, err)
	}
}

func TestIORoundTrip(t *testing.T) {
	g := New()
	g.AddNode(NewTuple("label", `"CTO"`, "name", `"Ann Lee"`, "age", "41"))
	g.AddNode(NewTuple("label", `"DB"`, "rating", "4.5"))
	g.AddNode(nil)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)

	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumNodes() != 3 || got.NumEdges() != 3 {
		t.Fatalf("round trip: %v", got)
	}
	if v, ok := got.Attrs(0).Get("name"); !ok || v.Str() != "Ann Lee" {
		t.Fatalf("quoted attribute with space lost: %v", got.Attrs(0))
	}
	if v, ok := got.Attrs(1).Get("rating"); !ok || v.Kind() != KindFloat || v.Num() != 4.5 {
		t.Fatalf("float attribute lost: %v", got.Attrs(1))
	}
	if !got.HasEdge(2, 0) {
		t.Fatal("edge (2,0) lost in round trip")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"node x",
		"node 0 label",
		"edge 0",
		"frob 1 2",
		"node 0\nnode 0",
		"node 5",
		"node 0\nedge 0 9",
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q): want error", src)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Float(2.5), Int(2), 1, true},
		{Int(2), Float(2.0), 0, true},
		{String("a"), String("b"), -1, true},
		{String("a"), Int(1), 0, false},
		{Int(1), String("1"), 0, false},
	}
	for _, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v, %v) = (%d, %v), want (%d, %v)", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	for _, s := range []string{"42", "-7", "3.25", `"hello"`, `"12"`} {
		v := ParseValue(s)
		if got := ParseValue(v.Quote()); !got.Equal(v) || got.Kind() != v.Kind() {
			t.Errorf("round trip %q -> %v -> %q -> %v", s, v, v.Quote(), got)
		}
	}
	if ParseValue("12").Kind() != KindInt {
		t.Error(`ParseValue("12") should be int`)
	}
	if ParseValue(`"12"`).Kind() != KindString {
		t.Error(`ParseValue("\"12\"") should be string`)
	}
}

func TestRandomSCCMatchesReachability(t *testing.T) {
	// Property: u, v share an SCC iff u reaches v and v reaches u.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 8
		for i := 0; i < n; i++ {
			g.AddNode(nil)
		}
		for e := 0; e < 14; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := g.SCC()
		reach := make([][]bool, n)
		for u := 0; u < n; u++ {
			reach[u] = make([]bool, n)
			dist := make([]int, n)
			g.BFSFrom(u, Forward, dist)
			for v := 0; v < n; v++ {
				reach[u][v] = dist[v] != Unreachable
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := comp[u] == comp[v]
				mutual := reach[u][v] && reach[v][u]
				if same != mutual {
					t.Fatalf("trial %d: comp[%d]==comp[%d] is %v but mutual reach is %v", trial, u, v, same, mutual)
				}
			}
		}
	}
}
