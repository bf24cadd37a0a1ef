package distance

import (
	"slices"

	"gpm/internal/graph"
)

// BFS is the zero-index oracle: every query runs a (bounded) breadth-first
// search over the live graph. It is the only oracle that needs no
// preprocessing and no maintenance under updates, which is why the paper
// uses "Match with BFS" for its large-graph scalability runs (Fig. 17(c,d)).
type BFS struct {
	g graph.View
	// scratch buffers reused across queries to avoid per-query allocation;
	// dist and seen, one entry per node, are allocated by the first walk
	// that goes farther than one hop.
	dist  []int
	seen  []int32
	epoch int32
	queue []graph.NodeID
}

// NewBFS returns a BFS oracle over g. The oracle reads g live: updates to g
// are immediately visible (and invalidate nothing). Any graph.View works —
// in particular a shared canonical graph or an engine's update overlay.
func NewBFS(g graph.View) *BFS {
	return &BFS{g: g}
}

func (b *BFS) ensure() {
	n := b.g.NumNodes()
	if len(b.dist) < n {
		b.dist = make([]int, n)
		b.seen = make([]int32, n)
		b.epoch = 0
	}
	b.epoch++
	if b.epoch == 0x7fffffff {
		for i := range b.seen {
			b.seen[i] = 0
		}
		b.epoch = 1
	}
}

// Dist implements Oracle with a BFS that stops as soon as v is reached.
func (b *BFS) Dist(u, v graph.NodeID) int {
	if u == v {
		return 0
	}
	b.ensure()
	b.seen[u] = b.epoch
	b.dist[u] = 0
	b.queue = append(b.queue[:0], u)
	for qi := 0; qi < len(b.queue); qi++ {
		x := b.queue[qi]
		nd := b.dist[x] + 1
		for _, w := range b.g.Out(x) {
			if b.seen[w] == b.epoch {
				continue
			}
			if w == v {
				return nd
			}
			b.seen[w] = b.epoch
			b.dist[w] = nd
			b.queue = append(b.queue, w)
		}
	}
	return graph.Unreachable
}

// DescNonempty implements Iterator: a forward BFS seeded from the children
// of v at distance 1, so that v itself is reported when it lies on a cycle.
func (b *BFS) DescNonempty(v graph.NodeID, bound int, fn func(w graph.NodeID, d int) bool) {
	b.walk(v, graph.Forward, bound, fn)
}

// AncNonempty implements Iterator: the reverse-direction walk.
func (b *BFS) AncNonempty(v graph.NodeID, bound int, fn func(w graph.NodeID, d int) bool) {
	b.walk(v, graph.Reverse, bound, fn)
}

func (b *BFS) walk(v graph.NodeID, dir graph.Dir, bound int, fn func(w graph.NodeID, d int) bool) {
	if bound < 1 {
		return
	}
	adj := b.adjacency(dir)
	if bound == 1 {
		// A walk of radius 1 is the adjacency list itself: a row holds no
		// repeats, so there is nothing to stamp, and an oracle that only ever
		// walks one hop (every bound of its pattern is 1) never allocates the
		// per-node dist and seen arrays.
		for _, c := range adj(v) {
			if !fn(c, 1) {
				return
			}
		}
		return
	}
	b.ensure()
	b.queue = b.queue[:0]
	for _, c := range adj(v) {
		if b.seen[c] != b.epoch {
			b.seen[c] = b.epoch
			b.dist[c] = 1
			if !fn(c, 1) {
				return
			}
			b.queue = append(b.queue, c)
		}
	}
	b.expand(adj, bound, fn)
}

// MultiSource walks breadth-first from all of srcs at once, up to bound
// hops in direction dir: fn sees every reached node exactly once, in
// nondecreasing order of its hop distance to the nearest source, with the
// sources themselves at distance 0 (duplicates in srcs are harmless). It is
// the affected-area probe of the batch repair in incbsim: one walk from the
// tails (heads) of a group of edge updates instead of one per update.
func (b *BFS) MultiSource(srcs []graph.NodeID, dir graph.Dir, bound int, fn func(w graph.NodeID, d int) bool) {
	if bound < 0 {
		return
	}
	if bound == 0 {
		// Radius 0 reaches the sources and nothing else; sorting them drops
		// the duplicates without the per-node stamp arrays (see walk).
		b.queue = append(b.queue[:0], srcs...)
		slices.Sort(b.queue)
		for _, s := range slices.Compact(b.queue) {
			if !fn(s, 0) {
				return
			}
		}
		return
	}
	b.ensure()
	b.queue = b.queue[:0]
	for _, s := range srcs {
		if b.seen[s] != b.epoch {
			b.seen[s] = b.epoch
			b.dist[s] = 0
			if !fn(s, 0) {
				return
			}
			b.queue = append(b.queue, s)
		}
	}
	b.expand(b.adjacency(dir), bound, fn)
}

func (b *BFS) adjacency(dir graph.Dir) func(graph.NodeID) []graph.NodeID {
	if dir == graph.Reverse {
		return b.g.In
	}
	return b.g.Out
}

// expand runs the BFS loop over the seeded queue: every node within bound
// not yet stamped with the current epoch is stamped and reported once.
func (b *BFS) expand(adj func(graph.NodeID) []graph.NodeID, bound int, fn func(w graph.NodeID, d int) bool) {
	for qi := 0; qi < len(b.queue); qi++ {
		x := b.queue[qi]
		nd := b.dist[x] + 1
		if nd > bound {
			continue
		}
		for _, w := range adj(x) {
			if b.seen[w] == b.epoch {
				continue
			}
			b.seen[w] = b.epoch
			b.dist[w] = nd
			if !fn(w, nd) {
				return
			}
			b.queue = append(b.queue, w)
		}
	}
}

var (
	_ Oracle   = (*BFS)(nil)
	_ Iterator = (*BFS)(nil)
)
