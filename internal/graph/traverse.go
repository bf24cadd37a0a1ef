package graph

// Unreachable is the distance reported for unreachable node pairs. It is
// larger than any path length in any graph this library can hold.
const Unreachable = int(^uint(0) >> 2)

// Dir selects a traversal direction.
type Dir uint8

const (
	// Forward follows out-edges (descendants).
	Forward Dir = iota
	// Reverse follows in-edges (ancestors).
	Reverse
)

func (g *Graph) adj(d Dir, v NodeID) []NodeID {
	if d == Forward {
		return g.out[v]
	}
	return g.in[v]
}

// BFSFrom computes single-source shortest-path (hop) distances from src in
// direction d, writing them into dist, which must have length NumNodes().
// Entries for unreachable nodes are set to Unreachable.
func (g *Graph) BFSFrom(src NodeID, d Dir, dist []int) {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := make([]NodeID, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		nd := dist[v] + 1
		for _, w := range g.adj(d, v) {
			if dist[w] == Unreachable {
				dist[w] = nd
				queue = append(queue, w)
			}
		}
	}
}

// BFSWithin visits every node within the given hop bound of src (excluding
// src itself unless it lies on a cycle back to itself — src is reported with
// distance 0 first), calling fn(node, dist). bound may be Unreachable for an
// unbounded traversal. Returning false stops the walk.
func (g *Graph) BFSWithin(src NodeID, d Dir, bound int, fn func(v NodeID, dist int) bool) {
	if bound < 0 {
		return
	}
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	if !fn(src, 0) {
		return
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		nd := dist[v] + 1
		if nd > bound {
			continue
		}
		for _, w := range g.adj(d, v) {
			if _, seen := dist[w]; !seen {
				dist[w] = nd
				if !fn(w, nd) {
					return
				}
				queue = append(queue, w)
			}
		}
	}
}
