package landmark

import (
	"math/rand"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
)

func TestNewIsExactOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := generator.RandomGraph(20, 40, 3, seed)
		ix := New(g)
		if err := ix.verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDistMatchesBFS(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := generator.RandomGraph(18, 36, 3, seed)
		ix := New(g)
		dist := make([]int, g.NumNodes())
		for u := 0; u < g.NumNodes(); u++ {
			g.BFSFrom(u, graph.Forward, dist)
			for v := 0; v < g.NumNodes(); v++ {
				want := dist[v]
				if want >= graph.Unreachable {
					want = graph.Unreachable
				}
				if got := ix.Dist(u, v); got != want {
					t.Fatalf("seed %d: Dist(%d,%d) = %d, want %d", seed, u, v, got, want)
				}
			}
		}
	}
}

func TestInsertMaintainsExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := generator.RandomGraph(15, 20, 2, int64(trial))
		ix := New(g)
		for step := 0; step < 25; step++ {
			u, v := rng.Intn(15), rng.Intn(15)
			if u == v {
				continue
			}
			ix.Insert(u, v)
			if err := ix.verify(); err != nil {
				t.Fatalf("trial %d step %d after Insert(%d,%d): %v", trial, step, u, v, err)
			}
		}
	}
}

func TestDeleteMaintainsExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := generator.RandomGraph(15, 40, 2, int64(trial)+100)
		ix := New(g)
		for step := 0; step < 25; step++ {
			edges := g.EdgeList()
			if len(edges) == 0 {
				break
			}
			e := edges[rng.Intn(len(edges))]
			ix.Delete(e[0], e[1])
			if err := ix.verify(); err != nil {
				t.Fatalf("trial %d step %d after Delete(%v): %v", trial, step, e, err)
			}
		}
	}
}

func TestMixedUpdatesMaintainExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		g := generator.RandomGraph(14, 25, 2, int64(trial)+200)
		ix := New(g)
		for step := 0; step < 40; step++ {
			u, v := rng.Intn(14), rng.Intn(14)
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				ix.Insert(u, v)
			} else {
				ix.Delete(u, v)
			}
			if err := ix.verify(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

func TestBatchMaintainsExactness(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		g := generator.RandomGraph(20, 40, 2, trial+300)
		ix := New(g)
		ups := generator.Updates(g, 8, 8, trial+400)
		ix.Batch(ups)
		if err := ix.verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBatchCancelsSameEdge(t *testing.T) {
	g := generator.RandomGraph(10, 15, 2, 7)
	ix := New(g)
	var u, v graph.NodeID = -1, -1
	for i := 0; i < 10 && u < 0; i++ {
		for j := 0; j < 10; j++ {
			if i != j && !g.HasEdge(i, j) {
				u, v = i, j
				break
			}
		}
	}
	applied := ix.Batch([]graph.Update{graph.Insert(u, v), graph.Delete(u, v)})
	if applied != 0 {
		t.Fatalf("applied = %d, want 0 (cancelled)", applied)
	}
	if err := ix.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionCoversNewEdge(t *testing.T) {
	// Two isolated nodes: the vertex cover is empty; inserting an edge must
	// add a landmark so the query stays exact.
	g := graph.New()
	a := g.AddNode(nil)
	b := g.AddNode(nil)
	ix := New(g)
	if len(ix.Landmarks()) != 0 {
		t.Fatalf("empty graph cover = %v", ix.Landmarks())
	}
	ix.Insert(a, b)
	if len(ix.Landmarks()) != 1 {
		t.Fatalf("landmarks after insert = %v, want 1", ix.Landmarks())
	}
	if d := ix.Dist(a, b); d != 1 {
		t.Fatalf("Dist(a,b) = %d, want 1", d)
	}
	if err := ix.verify(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexGraphGainsNodes: nodes are appended to the graph directly, so the
// index must take them in when the next edge update arrives, whichever of
// Insert, Delete and Batch brings it.
func TestIndexGraphGainsNodes(t *testing.T) {
	g := graph.New()
	a := g.AddNode(nil)
	b := g.AddNode(nil)
	if _, err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	ix := New(g)
	c := g.AddNode(nil)
	if !ix.Insert(b, c) {
		t.Fatal("Insert(b, c) onto a node gained after New: not applied")
	}
	if d := ix.Dist(a, c); d != 2 {
		t.Fatalf("Dist(a,c) = %d, want 2", d)
	}
	d := g.AddNode(nil)
	if !ix.Delete(a, b) {
		t.Fatal("Delete(a, b): not applied")
	}
	if err := ix.verify(); err != nil {
		t.Fatalf("after a deletion with an isolated new node: %v", err)
	}
	e := g.AddNode(nil)
	if n := ix.Batch([]graph.Update{graph.Insert(c, d), graph.Insert(e, a), graph.Insert(a, b)}); n != 3 {
		t.Fatalf("Batch kept %d updates, want 3", n)
	}
	if got := ix.Dist(e, d); got != 4 {
		t.Fatalf("Dist(e,d) = %d, want 4", got)
	}
	if err := ix.verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDistOnAppendedNode: a node appended since the last update is outside
// the distance vectors; it has no edge yet, so Dist must say unreachable (0 to
// itself) instead of indexing past them.
func TestDistOnAppendedNode(t *testing.T) {
	g := graph.New()
	a := g.AddNode(nil)
	b := g.AddNode(nil)
	if _, err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	ix := New(g)
	c := g.AddNode(nil)
	for _, q := range [][3]graph.NodeID{{a, c, graph.Unreachable}, {c, b, graph.Unreachable}, {c, c, 0}, {a, b, 1}} {
		if d := ix.Dist(q[0], q[1]); d != q[2] {
			t.Fatalf("Dist(%d,%d) = %d with node %d appended since New, want %d", q[0], q[1], d, c, q[2])
		}
	}
	if !ix.Insert(b, c) {
		t.Fatal("Insert(b, c): not applied")
	}
	if d := ix.Dist(a, c); d != 2 {
		t.Fatalf("Dist(a,c) = %d once the edge is in, want 2", d)
	}
	if err := ix.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteKeepsLandmarks(t *testing.T) {
	// Proposition 6.2: deletions never force landmark changes.
	g := generator.RandomGraph(12, 24, 2, 21)
	ix := New(g)
	before := len(ix.Landmarks())
	for _, e := range g.EdgeList()[:5] {
		ix.Delete(e[0], e[1])
	}
	if len(ix.Landmarks()) != before {
		t.Fatalf("landmarks changed on deletion: %d → %d", before, len(ix.Landmarks()))
	}
}

func TestDeleteDisconnects(t *testing.T) {
	// 0→1→2 chain: deleting 1→2 makes 2 unreachable from 0 and 1.
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	ix := New(g)
	if d := ix.Dist(0, 2); d != 2 {
		t.Fatalf("Dist(0,2) = %d, want 2", d)
	}
	ix.Delete(1, 2)
	if d := ix.Dist(0, 2); d != graph.Unreachable {
		t.Fatalf("Dist(0,2) after cut = %d, want Unreachable", d)
	}
	if err := ix.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWithAlternativePath(t *testing.T) {
	// Diamond: 0→1→3, 0→2→3. Deleting 1→3 leaves dist(0,3) = 2.
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	ix := New(g)
	ix.Delete(1, 3)
	if d := ix.Dist(0, 3); d != 2 {
		t.Fatalf("Dist(0,3) = %d, want 2 via the surviving branch", d)
	}
	if err := ix.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndBytes(t *testing.T) {
	g := generator.RandomGraph(10, 20, 2, 31)
	ix := New(g)
	if ix.Bytes() <= 0 {
		t.Fatal("Bytes should be positive with landmarks present")
	}
	s := ix.Stats()
	if s.LandmarksAdded == 0 || s.EntriesUpdated == 0 {
		t.Fatalf("build stats empty: %+v", s)
	}
	ix.ResetStats()
	if ix.Stats() != (Stats{}) {
		t.Fatal("ResetStats failed")
	}
}

func TestVertexCoverProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := generator.RandomGraph(25, 60, 2, seed)
		cover := vertexCover(g)
		in := make(map[graph.NodeID]bool, len(cover))
		for _, v := range cover {
			in[v] = true
		}
		g.Edges(func(u, v graph.NodeID) bool {
			if !in[u] && !in[v] {
				t.Fatalf("seed %d: edge (%d,%d) uncovered", seed, u, v)
			}
			return true
		})
	}
}

func TestRebuildEquivalentDistances(t *testing.T) {
	g := generator.RandomGraph(15, 30, 2, 41)
	ix := New(g)
	ups := generator.Updates(g, 6, 6, 42)
	ix.Batch(ups)
	fresh := New(g)
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if ix.Dist(u, v) != fresh.Dist(u, v) {
				t.Fatalf("maintained Dist(%d,%d)=%d, rebuilt=%d", u, v, ix.Dist(u, v), fresh.Dist(u, v))
			}
		}
	}
}
