package core

import (
	"gpm/internal/distance"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// The reference side of the property tests: the definition of bounded
// simulation iterated to a fixpoint, and its checker. A colored edge reads
// distances from a matrix over its color's data edges only, so neither
// shares code with Match's walks.

// colorDists returns the nonempty distance from v to w along data edges of
// the given color ("" = any edge), for every color p uses.
func colorDists(p *pattern.Pattern, g *graph.Graph) func(color string, v, w graph.NodeID) int {
	views := map[string]*graph.Graph{"": g}
	for _, e := range p.Edges() {
		if views[e.Color] == nil {
			sub := g.Clone()
			g.Edges(func(u, v graph.NodeID) bool {
				if g.EdgeLabel(u, v) != e.Color {
					sub.RemoveEdge(u, v)
				}
				return true
			})
			views[e.Color] = sub
		}
	}
	oracles := make(map[string]*distance.Matrix, len(views))
	for color, view := range views {
		oracles[color] = distance.NewMatrix(view)
	}
	return func(color string, v, w graph.NodeID) int {
		return distance.NonemptyDist(oracles[color], views[color], v, w)
	}
}

// supported reports whether every pattern edge (u, u2) leads from v to some
// w in r[u2] within its bound and color.
func supported(p *pattern.Pattern, r rel.Relation, dist func(string, graph.NodeID, graph.NodeID) int, u int, v graph.NodeID) bool {
	for _, u2 := range p.Out(u) {
		bound, _ := p.Bound(u, u2)
		color := p.Color(u, u2)
		found := false
		for w := range r[u2] {
			if pattern.WithinBound(dist(color, v, w), bound) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// NaiveBounded computes the maximum bounded simulation by iterating the
// definition to a fixpoint.
func NaiveBounded(p *pattern.Pattern, g *graph.Graph) rel.Relation {
	dist := colorDists(p, g)
	np, n := p.NumNodes(), g.NumNodes()
	mat := rel.NewRelation(np)
	for u := 0; u < np; u++ {
		pred := p.Pred(u)
		for v := 0; v < n; v++ {
			if pred.Eval(g.Attrs(v)) {
				mat[u].Add(v)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < np; u++ {
			for _, v := range mat[u].Sorted() {
				if !supported(p, mat, dist, u, v) {
					mat[u].Remove(v)
					changed = true
				}
			}
		}
	}
	if !mat.Total() {
		return rel.NewRelation(np)
	}
	return mat
}

// Holds verifies that r is a bounded simulation of P in G (conditions (1)-(3)
// of Section 2.2, colored edges included). The empty relation trivially
// holds.
func Holds(p *pattern.Pattern, g *graph.Graph, r rel.Relation) bool {
	if r.Empty() {
		return true
	}
	if !r.Total() {
		return false
	}
	dist := colorDists(p, g)
	for u := range r {
		for v := range r[u] {
			if !p.Pred(u).Eval(g.Attrs(v)) || !supported(p, r, dist, u, v) {
				return false
			}
		}
	}
	return true
}
