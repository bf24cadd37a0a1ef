package core

// Edge-colored bounded simulation, the extension sketched in the remark of
// Section 2.2: data edges carry relationship labels ("colors"), and a colored
// pattern edge maps only to paths whose every edge carries its color. No
// generic distance oracle knows colors, so Match walks each colored pattern
// edge with a colorWalk, whatever oracle serves the plain ones. Incremental
// engines reject colored patterns at construction.

import "gpm/internal/graph"

// colorWalk is the distance.Iterator of one edge color: a breadth-first walk
// over the data edges labeled color only.
type colorWalk struct {
	g     *graph.Graph
	color string
}

// DescNonempty visits every node reachable from v by a nonempty path of at
// most bound edges, all labeled c.color.
func (c colorWalk) DescNonempty(v graph.NodeID, bound int, fn func(w graph.NodeID, d int) bool) {
	c.walk(v, graph.Forward, bound, fn)
}

// AncNonempty is the reverse-direction walk.
func (c colorWalk) AncNonempty(v graph.NodeID, bound int, fn func(w graph.NodeID, d int) bool) {
	c.walk(v, graph.Reverse, bound, fn)
}

// walk is a level-by-level BFS from v that leaves v unmarked, so v itself is
// visited iff it lies on a colored cycle within the bound. Returning false
// from fn stops the walk.
func (c colorWalk) walk(v graph.NodeID, dir graph.Dir, bound int, fn func(w graph.NodeID, d int) bool) {
	adj := c.g.Out
	if dir == graph.Reverse {
		adj = c.g.In
	}
	seen := map[graph.NodeID]bool{}
	frontier := []graph.NodeID{v}
	for d := 1; d <= bound && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, x := range frontier {
			for _, w := range adj(x) {
				from, to := x, w
				if dir == graph.Reverse {
					from, to = w, x
				}
				if !seen[w] && c.g.EdgeLabel(from, to) == c.color {
					seen[w] = true
					if !fn(w, d) {
						return
					}
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
}
