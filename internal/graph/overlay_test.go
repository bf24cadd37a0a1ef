package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortedCopy returns a sorted copy of an adjacency slice for comparison.
func sortedCopy(s []NodeID) []NodeID {
	c := append([]NodeID(nil), s...)
	sort.Ints(c)
	return c
}

func equalAdj(a, b []NodeID) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertSameView checks every View observation agrees between got and want.
func assertSameView(t *testing.T, got, want View) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes: %d != %d", got.NumNodes(), want.NumNodes())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges: %d != %d", got.NumEdges(), want.NumEdges())
	}
	n := want.NumNodes()
	for v := 0; v < n; v++ {
		if !equalAdj(got.Out(v), want.Out(v)) {
			t.Fatalf("Out(%d): %v != %v", v, got.Out(v), want.Out(v))
		}
		if !equalAdj(got.In(v), want.In(v)) {
			t.Fatalf("In(%d): %v != %v", v, got.In(v), want.In(v))
		}
		if got.OutDegree(v) != want.OutDegree(v) || got.InDegree(v) != want.InDegree(v) || got.Degree(v) != want.Degree(v) {
			t.Fatalf("degrees of %d disagree", v)
		}
		for w := 0; w < n; w++ {
			if got.HasEdge(v, w) != want.HasEdge(v, w) {
				t.Fatalf("HasEdge(%d,%d): %v != %v", v, w, got.HasEdge(v, w), want.HasEdge(v, w))
			}
			if got.EdgeLabel(v, w) != want.EdgeLabel(v, w) {
				t.Fatalf("EdgeLabel(%d,%d): %q != %q", v, w, got.EdgeLabel(v, w), want.EdgeLabel(v, w))
			}
		}
	}
}

// TestOverlayEquivalence is a seeded differential of the overlay against a
// mirror *Graph, over many generations of the shared-engine protocol: random
// AddEdge/RemoveEdge/Apply calls land in the overlay and the mirror, every
// View observation agreeing after each one; then the overlay is Reset and
// the owner commits the same updates to the base, appends nodes and relabels
// an edge before the next generation.
func TestOverlayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { overlayDifferential(t, seed) })
	}
}

func overlayDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(12)
	base := New()
	for i := 0; i < n; i++ {
		base.AddNode(nil)
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(3) == 0 {
			base.AddLabeledEdge(u, v, "l") //nolint:errcheck // endpoints exist
		} else {
			base.AddEdge(u, v) //nolint:errcheck // endpoints exist
		}
	}
	ov := NewOverlay(base)
	for gen := 0; gen < 12; gen++ {
		n = base.NumNodes()
		frozen, mirror := base.Clone(), base.Clone()
		var ups []Update
		for i, ops := 0, rng.Intn(2*n); i < ops; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if out := mirror.Out(u); len(out) > 0 && rng.Intn(2) == 0 {
				v = out[rng.Intn(len(out))] // aim at an existing edge
			} else if len(ups) > 0 && rng.Intn(3) == 0 {
				prev := ups[rng.Intn(len(ups))] // or at one this generation already changed
				u, v = prev.From, prev.To
			}
			up := Update{Op: Op(rng.Intn(2)), From: u, To: v}
			var got, want bool
			switch {
			case rng.Intn(3) == 0:
				got, _ = ov.Apply(up)
				want, _ = mirror.Apply(up)
			case up.Op == InsertEdge:
				got, _ = ov.AddEdge(u, v)
				want, _ = mirror.AddEdge(u, v)
			default:
				got, want = ov.RemoveEdge(u, v), mirror.RemoveEdge(u, v)
			}
			if got != want {
				t.Fatalf("gen %d: %v changed=%v, mirror says %v", gen, up, got, want)
			}
			ups = append(ups, up)
			assertSameView(t, ov, mirror)
			if got, want := ov.Pending(), edgeDiff(mirror, base); got != want {
				t.Fatalf("gen %d after %v: Pending = %d, want |mirror Δ base| = %d", gen, up, got, want)
			}
		}
		if _, err := ov.AddEdge(0, n); err == nil {
			t.Fatalf("gen %d: AddEdge to node %d of %d must fail", gen, n, n)
		}
		assertSameView(t, base, frozen) // writes never leak into the base

		ov.Reset()
		if ov.Pending() != 0 {
			t.Fatalf("gen %d: Pending after Reset = %d", gen, ov.Pending())
		}
		if _, err := base.ApplyAll(ups); err != nil {
			t.Fatal(err)
		}
		assertSameView(t, base, mirror)
		for i := rng.Intn(3); i > 0; i-- {
			base.AddNode(nil)
		}
		if es := base.EdgeList(); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			base.SetEdgeLabel(e[0], e[1], "l") //nolint:errcheck // edge exists
		}
		assertSameView(t, ov, base)
	}
}

// edgeDiff counts the edges exactly one of a and b has.
func edgeDiff(a, b *Graph) int {
	d := 0
	a.Edges(func(u, v NodeID) bool {
		if !b.HasEdge(u, v) {
			d++
		}
		return true
	})
	b.Edges(func(u, v NodeID) bool {
		if !a.HasEdge(u, v) {
			d++
		}
		return true
	})
	return d
}

// overlayWorkload returns a random base and a generation of k updates over
// it, half deletions of existing edges and half insertions of new ones.
func overlayWorkload(n, m, k int) (*Graph, []Update) {
	rng := rand.New(rand.NewSource(1))
	g := NewWithCapacity(n, m)
	for i := 0; i < n; i++ {
		g.AddNode(nil)
	}
	for g.NumEdges() < m {
		g.AddEdge(rng.Intn(n), rng.Intn(n)) //nolint:errcheck // endpoints exist
	}
	es := g.EdgeList()
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	ups := make([]Update, 0, k)
	for _, e := range es[:k/2] {
		ups = append(ups, Delete(e[0], e[1]))
	}
	for len(ups) < k {
		if u, v := rng.Intn(n), rng.Intn(n); !g.HasEdge(u, v) {
			ups = append(ups, Insert(u, v))
		}
	}
	return g, ups
}

// TestOverlayAllocations pins the overlay's memory model: an overlay that
// is only read holds no per-node array (P shared engines are not P slot
// arrays until each has absorbed a write), and once its rows are warm a
// generation of writes and its Reset allocate nothing.
func TestOverlayAllocations(t *testing.T) {
	g, ups := overlayWorkload(2000, 8000, 16)
	ov := NewOverlay(g)
	for v := 0; v < g.NumNodes(); v++ {
		if len(ov.Out(v)) != g.OutDegree(v) || ov.InDegree(v) != g.InDegree(v) || ov.HasEdge(v, v) != g.HasEdge(v, v) {
			t.Fatalf("unwritten overlay disagrees with its base at node %d", v)
		}
	}
	if ov.slot != nil || ov.touched != nil || ov.unlabeled != nil {
		t.Fatal("an overlay that was never written to holds per-node state")
	}
	generation := func() {
		for _, up := range ups {
			if changed, err := ov.Apply(up); err != nil || !changed {
				t.Fatalf("%v: changed=%v err=%v", up, changed, err)
			}
		}
		if ov.Pending() != len(ups) {
			t.Fatalf("Pending = %d after %d effective updates", ov.Pending(), len(ups))
		}
		ov.Reset()
	}
	generation() // warm the rows
	if allocs := testing.AllocsPerRun(10, generation); allocs != 0 {
		t.Fatalf("a warmed-up generation of %d updates + Reset allocates %.0f objects, want 0", len(ups), allocs)
	}
}

func BenchmarkOverlayGeneration(b *testing.B) {
	for _, k := range []int{16, 400} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			g, ups := overlayWorkload(2000, 8000, k)
			ov := NewOverlay(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, up := range ups {
					ov.Apply(up) //nolint:errcheck // ops are valid by construction
				}
				ov.Reset()
			}
		})
	}
}

// TestOverlayMasksRemovedLabels checks a removed base edge hides its label
// and a re-added one comes back unlabeled.
func TestOverlayMasksRemovedLabels(t *testing.T) {
	g := New()
	a, b := g.AddNode(nil), g.AddNode(nil)
	if _, err := g.AddLabeledEdge(a, b, "friend"); err != nil {
		t.Fatal(err)
	}
	ov := NewOverlay(g)
	if got := ov.EdgeLabel(a, b); got != "friend" {
		t.Fatalf("label before removal = %q", got)
	}
	if !ov.RemoveEdge(a, b) {
		t.Fatal("RemoveEdge failed")
	}
	if got := ov.EdgeLabel(a, b); got != "" {
		t.Fatalf("label after overlay removal = %q", got)
	}
	if added, _ := ov.AddEdge(a, b); !added {
		t.Fatal("re-AddEdge failed")
	}
	if got := ov.EdgeLabel(a, b); got != "" {
		t.Fatalf("overlay re-added edge must be unlabeled, got %q", got)
	}
	if g.EdgeLabel(a, b) != "friend" {
		t.Fatal("base label must survive overlay writes")
	}
}

// TestOverlayInsertDeleteCancel checks a same-edge insert/delete pair
// inside one overlay generation leaves no diff behind.
func TestOverlayInsertDeleteCancel(t *testing.T) {
	g := New()
	a, b := g.AddNode(nil), g.AddNode(nil)
	ov := NewOverlay(g)
	if added, _ := ov.AddEdge(a, b); !added {
		t.Fatal("AddEdge failed")
	}
	if !ov.RemoveEdge(a, b) {
		t.Fatal("RemoveEdge failed")
	}
	if ov.Pending() != 0 {
		t.Fatalf("insert/delete pair left %d pending changes", ov.Pending())
	}
	if ov.HasEdge(a, b) || ov.NumEdges() != 0 {
		t.Fatal("cancelled pair still visible")
	}
}

// TestOverlayRejectsUnknownNodes mirrors Graph.AddEdge's range check.
func TestOverlayRejectsUnknownNodes(t *testing.T) {
	g := New()
	g.AddNode(nil)
	ov := NewOverlay(g)
	if _, err := ov.AddEdge(0, 7); err == nil {
		t.Fatal("AddEdge with out-of-range endpoint must fail")
	}
	if _, err := ov.Apply(Update{Op: 9}); err == nil {
		t.Fatal("unknown op must fail")
	}
}

// TestCloneViewRoundTrip materializes an overlay-composed view and checks
// the clone observes identically.
func TestCloneViewRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	const n = 10
	for i := 0; i < n; i++ {
		g.AddNode(NewTuple("x", "1"))
	}
	for i := 0; i < 25; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	e := g.EdgeList()[0]
	g.SetEdgeLabel(e[0], e[1], "l")
	ov := NewOverlay(g)
	ov.AddEdge(rng.Intn(n), rng.Intn(n))
	ov.RemoveEdge(e[0], e[1])
	assertSameView(t, CloneView(ov), ov)
}
