// Package landmark implements the landmark vectors and distance vectors of
// Section 6.2, and their incremental maintenance (Section 6.4): InsLM,
// DelLM, IncLM and the BatchLM rebuild baseline.
//
// A landmark vector lm is a set of nodes such that every pair of distinct
// connected nodes has a landmark on some shortest path between them; any
// vertex cover qualifies, and like the paper's experiments we seed lm with
// a greedy minimum vertex cover (the maximal-matching 2-approximation).
// Each node conceptually carries two distance vectors — distances to every
// landmark (distvf) and from every landmark (distvt); we store them
// transposed as one array per landmark for locality. A distance query is
// min over landmarks of distvf[u][i] + distvt[v][i], exact by the cover
// property, making the index a distance.Oracle for the bounded-simulation
// matcher.
package landmark

import (
	"fmt"

	"gpm/internal/graph"
	"gpm/internal/par"
)

const unreachable32 = int32(1) << 30

// Index is a maintained landmark + distance-vector structure over a graph.
// All edge updates must go through Insert/Delete/Batch so the vectors stay
// exact. Nodes are appended to the graph directly; the index takes them in
// at its next Insert, Delete or Batch. Until then Dist answers for such a
// node what is true of it: it has no indexed edge, so it reaches nothing.
type Index struct {
	g    *graph.Graph
	lms  []graph.NodeID // the landmark vector
	isLM []bool
	// distTo[i][v] = dist(lm_i → v); distFrom[i][v] = dist(v → lm_i).
	distTo   [][]int32
	distFrom [][]int32

	stats Stats
	// scratch
	buf []int
}

// Stats counts maintenance work — the AFF measure of Propositions 6.2/6.3.
type Stats struct {
	LandmarksAdded int64
	EntriesUpdated int64 // distance-vector entries rewritten
	NodesVisited   int64 // nodes touched by affected-area searches
}

// New builds an index over g: a greedy vertex-cover landmark vector plus
// one forward and one backward BFS per landmark (the BatchLM computation),
// with the per-landmark BFS runs distributed over the default number of
// workers (par.DefaultWorkers).
func New(g *graph.Graph) *Index {
	return NewWorkers(g, 0)
}

// NewWorkers builds an index over g using the given number of workers for
// the per-landmark BFS runs: 0 selects the default, 1 runs serially. The
// vertex-cover selection stays sequential (it is inherently greedy and
// cheap next to the BFS phase).
func NewWorkers(g *graph.Graph, workers int) *Index {
	n := g.NumNodes()
	ix := &Index{g: g, isLM: make([]bool, n)}
	cover := vertexCover(g)
	k := len(cover)
	ix.lms = make([]graph.NodeID, k)
	copy(ix.lms, cover)
	for _, v := range cover {
		ix.isLM[v] = true
	}
	ix.distTo = make([][]int32, k)
	ix.distFrom = make([][]int32, k)
	w := par.Resolve(workers, k)
	bufs := make([][]int, w) // one BFS scratch buffer per worker
	par.For(k, w, func(worker, i int) {
		buf := bufs[worker]
		if buf == nil {
			buf = make([]int, n)
			bufs[worker] = buf
		}
		lm := ix.lms[i]
		to := make([]int32, n)
		g.BFSFrom(lm, graph.Forward, buf)
		for j, d := range buf {
			to[j] = clamp32(d)
		}
		from := make([]int32, n)
		g.BFSFrom(lm, graph.Reverse, buf)
		for j, d := range buf {
			from[j] = clamp32(d)
		}
		ix.distTo[i] = to
		ix.distFrom[i] = from
	})
	ix.stats.LandmarksAdded = int64(k)
	ix.stats.EntriesUpdated = 2 * int64(n) * int64(k)
	return ix
}

// vertexCover returns a greedy minimum vertex cover (the paper's heuristic
// choice): repeatedly take the node covering the most uncovered edges. On
// degree-skewed graphs this yields far smaller covers — and therefore far
// smaller distance vectors — than the matching-based 2-approximation.
func vertexCover(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	// Remaining uncovered degree per node, bucketed for O(E) total work.
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if g.HasEdge(v, v) {
			deg[v]-- // a self-loop counts once
		}
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]graph.NodeID, maxDeg+1)
	for v := 0; v < n; v++ {
		if deg[v] > 0 {
			buckets[deg[v]] = append(buckets[deg[v]], v)
		}
	}
	inCover := make([]bool, n)
	covered := func(u, v graph.NodeID) bool { return inCover[u] || inCover[v] }
	uncovered := g.NumEdges()
	var cover []graph.NodeID
	for d := maxDeg; d > 0 && uncovered > 0; {
		if len(buckets[d]) == 0 {
			d--
			continue
		}
		v := buckets[d][len(buckets[d])-1]
		buckets[d] = buckets[d][:len(buckets[d])-1]
		if inCover[v] {
			continue
		}
		// Recompute v's current uncovered degree; re-bucket if stale.
		cur := 0
		for _, w := range g.Out(v) {
			if !covered(v, w) {
				cur++
			}
		}
		for _, w := range g.In(v) {
			if w != v && !covered(w, v) {
				cur++
			}
		}
		if cur == 0 {
			continue
		}
		if cur < d {
			buckets[cur] = append(buckets[cur], v)
			continue
		}
		inCover[v] = true
		cover = append(cover, v)
		uncovered -= cur
	}
	return cover
}

// addLandmark appends v to the landmark vector and computes its two
// distance arrays with BFS.
func (ix *Index) addLandmark(v graph.NodeID) {
	if ix.isLM[v] {
		return
	}
	ix.isLM[v] = true
	ix.lms = append(ix.lms, v)
	n := ix.g.NumNodes()
	if cap(ix.buf) < n {
		ix.buf = make([]int, n)
	}
	to := make([]int32, n)
	ix.g.BFSFrom(v, graph.Forward, ix.buf[:n])
	for i, d := range ix.buf[:n] {
		to[i] = clamp32(d)
	}
	from := make([]int32, n)
	ix.g.BFSFrom(v, graph.Reverse, ix.buf[:n])
	for i, d := range ix.buf[:n] {
		from[i] = clamp32(d)
	}
	ix.distTo = append(ix.distTo, to)
	ix.distFrom = append(ix.distFrom, from)
	ix.stats.LandmarksAdded++
	ix.stats.EntriesUpdated += int64(2 * n)
}

func clamp32(d int) int32 {
	if d >= graph.Unreachable {
		return unreachable32
	}
	return int32(d)
}

// Graph returns the underlying graph. Callers must not mutate it directly.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Landmarks returns the landmark vector (not to be mutated).
func (ix *Index) Landmarks() []graph.NodeID { return ix.lms }

// Stats returns cumulative maintenance statistics.
func (ix *Index) Stats() Stats { return ix.stats }

// ResetStats clears the statistics.
func (ix *Index) ResetStats() { ix.stats = Stats{} }

// Bytes reports the memory footprint of the distance vectors — the space
// statistic of Fig. 20(b).
func (ix *Index) Bytes() int64 {
	return int64(len(ix.lms)) * int64(ix.g.NumNodes()) * 8
}

// Dist implements distance.Oracle: the exact hop distance from u to v.
func (ix *Index) Dist(u, v graph.NodeID) int {
	if u == v {
		return 0
	}
	if n := len(ix.isLM); u >= n || v >= n {
		// Appended since the last update: the vectors do not cover it yet,
		// and an update would have grown them before adding its first edge.
		return graph.Unreachable
	}
	best := unreachable32
	for i := range ix.lms {
		df, dt := ix.distFrom[i][u], ix.distTo[i][v]
		if df == unreachable32 || dt == unreachable32 {
			continue
		}
		if s := df + dt; s < best {
			best = s
		}
	}
	if best >= unreachable32 {
		return graph.Unreachable
	}
	return int(best)
}

// verify checks exactness of every vector entry against fresh BFS runs
// (test hook).
func (ix *Index) verify() error {
	n := ix.g.NumNodes()
	dist := make([]int, n)
	for i, lm := range ix.lms {
		ix.g.BFSFrom(lm, graph.Forward, dist)
		for v := 0; v < n; v++ {
			if clamp32(dist[v]) != ix.distTo[i][v] {
				return fmt.Errorf("distTo[%d (lm %d)][%d] = %d, want %d", i, lm, v, ix.distTo[i][v], clamp32(dist[v]))
			}
		}
		ix.g.BFSFrom(lm, graph.Reverse, dist)
		for v := 0; v < n; v++ {
			if clamp32(dist[v]) != ix.distFrom[i][v] {
				return fmt.Errorf("distFrom[%d (lm %d)][%d] = %d, want %d", i, lm, v, ix.distFrom[i][v], clamp32(dist[v]))
			}
		}
	}
	// Cover property: every edge must have a landmark endpoint.
	ok := true
	ix.g.Edges(func(u, v graph.NodeID) bool {
		if !ix.isLM[u] && !ix.isLM[v] {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return fmt.Errorf("landmark set is not a vertex cover")
	}
	return nil
}
