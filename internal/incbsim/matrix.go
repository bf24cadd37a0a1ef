package incbsim

// MatrixEngine is IncBMatchᵐ, the incremental bounded-simulation matcher of
// Fan et al. 2010 that the paper uses as a baseline in Fig. 19: it
// maintains a full all-pairs distance matrix (O(|V|²) space) instead of
// landmark vectors or bounded searches. Insertions relax the matrix in
// O(|V|²); deletions force a full matrix rebuild; the pairs whose witness
// left the bound are found by a global scan. It produces the same matches as Engine — only the cost
// profile differs, which is exactly what the figure measures.

import (
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// MatrixEngine maintains bounded simulation with an all-pairs matrix.
type MatrixEngine struct {
	e    *Engine
	g    *graph.Graph // the owned graph (MatrixEngine has no shared mode)
	n    int
	dist []int32 // row-major n×n hop distances
}

const inf32 = int32(1) << 30

// within reports whether the nonempty distance d is inside bound.
func within(d, bound int32) bool { return d >= 1 && d <= bound && d != inf32 }

// NewMatrix builds the matrix-based engine.
func NewMatrix(p *pattern.Pattern, g *graph.Graph) (*MatrixEngine, error) {
	inner, err := New(p, g)
	if err != nil {
		return nil, err
	}
	m := &MatrixEngine{e: inner, g: g, n: g.NumNodes()}
	m.dist = make([]int32, m.n*m.n)
	m.recompute(m.dist)
	return m, nil
}

// recompute fills dst with fresh all-pairs BFS distances.
func (m *MatrixEngine) recompute(dst []int32) {
	row := make([]int, m.n)
	for u := 0; u < m.n; u++ {
		m.g.BFSFrom(u, graph.Forward, row)
		base := u * m.n
		for v, d := range row {
			if d >= graph.Unreachable {
				dst[base+v] = inf32
			} else {
				dst[base+v] = int32(d)
			}
		}
	}
}

// Result returns the current maximum match.
func (m *MatrixEngine) Result() rel.Relation { return m.e.Result() }

// Stats returns the inner engine's statistics.
func (m *MatrixEngine) Stats() Stats { return m.e.Stats() }

// Bytes reports the matrix footprint.
func (m *MatrixEngine) Bytes() int64 { return int64(len(m.dist)) * 4 }

// nonemptyOld returns the old-matrix nonempty distance (cycle-aware).
func nonemptyAt(dist []int32, n int, g graph.View, u, v graph.NodeID) int32 {
	if u != v {
		return dist[u*n+v]
	}
	best := inf32
	for _, c := range g.Out(u) {
		if c == u {
			return 1
		}
		if d := dist[c*n+u]; d != inf32 && d+1 < best {
			best = d + 1
		}
	}
	return best
}

// Batch applies updates: matrix maintenance, global flip scan, then the
// shared cascade/promotion machinery.
func (m *MatrixEngine) Batch(ups []graph.Update) {
	e := m.e
	e.mu.Lock()
	defer e.mu.Unlock()
	// Arm the inner engine's change-set so cascade/promote invalidate its
	// cached Result() snapshot (drainTouched/promote record through it).
	e.beginChanges()
	defer e.endChanges()
	net := graph.NetUpdates(e.g, ups)
	if len(net) == 0 {
		return
	}
	old := m.dist
	// Snapshot the out-adjacency relevant to self-distance before mutating.
	oldGirth := make(map[graph.NodeID]int32)
	for u := range e.sat {
		for v := range e.sat[u] {
			if _, ok := oldGirth[v]; !ok {
				oldGirth[v] = nonemptyAt(old, m.n, e.g, v, v)
			}
		}
	}
	hasDelete := false
	for _, up := range net {
		e.g.Apply(up) //nolint:errcheck // net updates: endpoints exist
		if up.Op == graph.DeleteEdge {
			hasDelete = true
		}
	}
	fresh := make([]int32, m.n*m.n)
	if hasDelete {
		m.recompute(fresh) // deletions invalidate the matrix wholesale
	} else {
		// Pure insertions: O(|ΔG||V|²) min-plus relaxations.
		copy(fresh, old)
		for _, up := range net {
			a, b := up.From, up.To
			for u := 0; u < m.n; u++ {
				da := fresh[u*m.n+a]
				if u == a {
					da = 0
				}
				if da == inf32 {
					continue
				}
				for v := 0; v < m.n; v++ {
					db := fresh[b*m.n+v]
					if b == v {
						db = 0
					}
					if db == inf32 {
						continue
					}
					if nd := da + 1 + db; nd < fresh[u*m.n+v] {
						fresh[u*m.n+v] = nd
					}
				}
			}
		}
	}
	m.dist = fresh

	newNE := func(u, v graph.NodeID) int32 { return nonemptyAt(fresh, m.n, e.g, u, v) }
	oldNE := func(u, v graph.NodeID) int32 {
		if u != v {
			return old[u*m.n+v]
		}
		return oldGirth[u]
	}

	// Global scan over ss pairs (the O(|Ep||V|²) cost that keeps this
	// baseline from scaling). It acts only on a pair whose witness left the
	// bound, which takes the smallest in-bound target in its place.
	var touched []touch
	for ei, pe := range e.edges {
		bound := int32(inf32)
		if pe.Bound != pattern.Unbounded {
			bound = int32(pe.Bound)
		}
		for v := range e.match[pe.From] {
			best := graph.NodeID(-1)
			for w := range e.match[pe.To] {
				e.stats.PairsExamined++
				if within(newNE(v, w), bound) && (best < 0 || w < best) {
					best = w
				}
			}
			if within(newNE(v, e.wit[ei][v]), bound) {
				continue
			}
			if best < 0 {
				touched = append(touched, touch{ei, v})
				continue
			}
			e.wit[ei][v] = best
			e.stats.WitnessUpdates++
		}
	}
	e.drainTouched(touched)

	// Seeds: candidates that gained any within-bound satisfying target.
	var seeds []pair
	for _, pe := range e.edges {
		bound := int32(inf32)
		if pe.Bound != pattern.Unbounded {
			bound = int32(pe.Bound)
		}
		for v := range e.sat[pe.From] {
			if !e.isCandidate(pe.From, v) {
				continue
			}
			for w := range e.sat[pe.To] {
				if within(newNE(v, w), bound) && !within(oldNE(v, w), bound) {
					seeds = append(seeds, pair{pe.From, v})
					break
				}
			}
		}
	}
	e.promote(seeds)
}

// Apply processes updates one at a time (each paying a matrix pass).
func (m *MatrixEngine) Apply(ups []graph.Update) {
	for _, up := range ups {
		m.Batch([]graph.Update{up})
	}
}
