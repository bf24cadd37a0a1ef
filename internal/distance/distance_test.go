package distance

import (
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
)

func chainGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(nil)
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	return g
}

func TestMatrixAgainstBFSOnChain(t *testing.T) {
	g := chainGraph(6)
	m := NewMatrix(g)
	b := NewBFS(g)
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			want := graph.Unreachable
			if v >= u {
				want = v - u
			}
			if d := m.Dist(u, v); d != want {
				t.Errorf("matrix Dist(%d,%d) = %d, want %d", u, v, d, want)
			}
			if d := b.Dist(u, v); d != want {
				t.Errorf("bfs Dist(%d,%d) = %d, want %d", u, v, d, want)
			}
		}
	}
}

func TestOraclesAgreeOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := generator.RandomGraph(20, 45, 3, seed)
		m := NewMatrix(g)
		b := NewBFS(g)
		h := NewTwoHop(g)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				dm := m.Dist(u, v)
				if db := b.Dist(u, v); db != dm {
					t.Fatalf("seed %d: BFS Dist(%d,%d)=%d, matrix=%d", seed, u, v, db, dm)
				}
				if dh := h.Dist(u, v); dh != dm {
					t.Fatalf("seed %d: 2-hop Dist(%d,%d)=%d, matrix=%d", seed, u, v, dh, dm)
				}
			}
		}
	}
}

func TestBFSIteratorNonemptySemantics(t *testing.T) {
	// Triangle 0→1→2→0: the nonempty walk from 0 must reach 0 again at 3.
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	b := NewBFS(g)
	got := map[graph.NodeID]int{}
	b.DescNonempty(0, 10, func(w graph.NodeID, d int) bool {
		got[w] = d
		return true
	})
	want := map[graph.NodeID]int{1: 1, 2: 2, 0: 3}
	for w, d := range want {
		if got[w] != d {
			t.Errorf("DescNonempty: dist[%d] = %d, want %d", w, got[w], d)
		}
	}
	got = map[graph.NodeID]int{}
	b.AncNonempty(0, 10, func(w graph.NodeID, d int) bool {
		got[w] = d
		return true
	})
	want = map[graph.NodeID]int{2: 1, 1: 2, 0: 3}
	for w, d := range want {
		if got[w] != d {
			t.Errorf("AncNonempty: dist[%d] = %d, want %d", w, got[w], d)
		}
	}
}

func TestBFSIteratorBound(t *testing.T) {
	g := chainGraph(6)
	b := NewBFS(g)
	count := 0
	b.DescNonempty(0, 3, func(w graph.NodeID, d int) bool {
		if d > 3 {
			t.Errorf("visited %d at distance %d > bound", w, d)
		}
		count++
		return true
	})
	if count != 3 {
		t.Fatalf("visited %d nodes, want 3", count)
	}
	// Early termination.
	count = 0
	b.DescNonempty(0, 5, func(w graph.NodeID, d int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d, want 1", count)
	}
}

func TestBFSIteratorMatchesMatrixOnRandom(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		g := generator.RandomGraph(15, 35, 2, seed)
		m := NewMatrix(g)
		b := NewBFS(g)
		for v := 0; v < g.NumNodes(); v++ {
			got := map[graph.NodeID]int{}
			b.DescNonempty(v, graph.Unreachable, func(w graph.NodeID, d int) bool {
				got[w] = d
				return true
			})
			for w := 0; w < g.NumNodes(); w++ {
				want := NonemptyDist(m, g, v, w)
				if want == graph.Unreachable {
					if _, ok := got[w]; ok {
						t.Fatalf("seed %d: DescNonempty visited unreachable %d→%d", seed, v, w)
					}
				} else if got[w] != want {
					t.Fatalf("seed %d: DescNonempty %d→%d = %d, want %d", seed, v, w, got[w], want)
				}
			}
		}
	}
}

func TestNonemptyDistSelfLoop(t *testing.T) {
	g := graph.New()
	g.AddNode(nil)
	g.AddEdge(0, 0)
	m := NewMatrix(g)
	if d := NonemptyDist(m, g, 0, 0); d != 1 {
		t.Fatalf("NonemptyDist self-loop = %d, want 1", d)
	}
}

func TestNonemptyDistNoCycle(t *testing.T) {
	g := chainGraph(3)
	m := NewMatrix(g)
	if d := NonemptyDist(m, g, 0, 0); d != graph.Unreachable {
		t.Fatalf("NonemptyDist on a chain = %d, want Unreachable", d)
	}
	if d := NonemptyDist(m, g, 0, 2); d != 2 {
		t.Fatalf("NonemptyDist(0,2) = %d, want 2", d)
	}
}

func TestWeightedMatrixUnitWeightsMatchBFS(t *testing.T) {
	g := generator.RandomGraph(12, 30, 2, 99)
	m := NewMatrix(g)
	w := NewWeightedMatrix(g, func(u, v graph.NodeID) float64 { return 1 })
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if m.Dist(u, v) != w.Dist(u, v) {
				t.Fatalf("weighted(1) Dist(%d,%d) = %d, matrix = %d", u, v, w.Dist(u, v), m.Dist(u, v))
			}
		}
	}
}

func TestWeightedMatrixShorterDetour(t *testing.T) {
	// 0→1 weight 10; 0→2→1 weights 1+1: the detour wins.
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(nil)
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	w := NewWeightedMatrix(g, func(u, v graph.NodeID) float64 {
		if u == 0 && v == 1 {
			return 10
		}
		return 1
	})
	if got := w.Weight(0, 1); got != 2 {
		t.Fatalf("Weight(0,1) = %v, want 2", got)
	}
}

func TestTwoHopLabelEntriesReported(t *testing.T) {
	g := generator.RandomGraph(30, 60, 2, 5)
	h := NewTwoHop(g)
	if h.LabelEntries() < 2*g.NumNodes() {
		t.Fatalf("LabelEntries = %d, want at least the self labels (%d)", h.LabelEntries(), 2*g.NumNodes())
	}
}

func TestMatrixBytes(t *testing.T) {
	g := chainGraph(10)
	m := NewMatrix(g)
	if m.Bytes() != 400 {
		t.Fatalf("Bytes = %d, want 400", m.Bytes())
	}
	if m.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
}

// MultiSource must report exactly the nodes within bound of the nearest
// source, once each, nearest first, with the distance the matrix gives —
// in both directions, with duplicate sources, and it must stop when told.
func TestBFSMultiSourceMatchesMatrixOnRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := generator.RandomGraph(15, 30, 3, seed)
		m := NewMatrix(g)
		b := NewBFS(g)
		srcs := []graph.NodeID{int(seed) % 15, int(3*seed+1) % 15, int(seed) % 15}
		for _, dir := range []graph.Dir{graph.Forward, graph.Reverse} {
			for bound := -1; bound <= 3; bound++ {
				got := make(map[graph.NodeID]int)
				last := 0
				b.MultiSource(srcs, dir, bound, func(w graph.NodeID, d int) bool {
					if _, dup := got[w]; dup {
						t.Fatalf("seed %d: node %d reported twice", seed, w)
					}
					if d < last {
						t.Fatalf("seed %d: distance %d reported after %d", seed, d, last)
					}
					got[w], last = d, d
					return true
				})
				for w := 0; w < g.NumNodes(); w++ {
					want := graph.Unreachable
					for _, s := range srcs {
						d := m.Dist(s, w)
						if dir == graph.Reverse {
							d = m.Dist(w, s)
						}
						want = min(want, d)
					}
					d, ok := got[w]
					if ok != (want <= bound) || (ok && d != want) {
						t.Fatalf("seed %d dir %v bound %d: node %d reported=%v at %d, nearest source is %d away", seed, dir, bound, w, ok, d, want)
					}
				}
			}
		}
		calls := 0
		b.MultiSource(srcs, graph.Forward, 3, func(graph.NodeID, int) bool {
			calls++
			return false
		})
		if calls != 1 {
			t.Fatalf("seed %d: %d reports after the callback said stop, want 1", seed, calls)
		}
	}
}
