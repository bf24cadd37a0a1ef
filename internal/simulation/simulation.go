// Package simulation implements graph simulation (Milner 1989) for normal
// patterns: the batch algorithm Matchs the paper benchmarks against, a
// counting-based maximum-simulation fixpoint in the style of Henzinger,
// Henzinger & Kopke (FOCS 1995), running in O((|V|+|Vp|)(|E|+|Ep|)) time.
//
// Graph simulation is the special case of bounded simulation on normal
// patterns (every edge bound 1); this package is both a baseline in its own
// right and the engine the incremental bounded-simulation matcher runs over
// the pair graph (Proposition 6.1).
package simulation

import (
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// Maximum computes the unique maximum simulation match Msim(P, G) for a
// normal pattern P. Following the paper's convention, if some pattern node
// has no match (P does not simulate into G) the returned relation is empty.
// Bounds on pattern edges are ignored (treated as 1); callers wanting
// bounded semantics should use the core package. A colored pattern edge is
// supported only by data edges that carry its color.
func Maximum(p *pattern.Pattern, g *graph.Graph) rel.Relation {
	np, n := p.NumNodes(), g.NumNodes()
	sim := rel.NewRelation(np)

	// Initialization: candidates satisfying the predicate, with the
	// out-degree guard of algorithm Match (line 6).
	for u := 0; u < np; u++ {
		pred := p.Pred(u)
		needChild := p.OutDegree(u) > 0
		for v := 0; v < n; v++ {
			if needChild && g.OutDegree(v) == 0 {
				continue
			}
			if pred.Eval(g.Attrs(v)) {
				sim[u].Add(v)
			}
		}
		if sim[u].Len() == 0 {
			return rel.NewRelation(np)
		}
	}

	edges := p.Edges()
	// cnt[e][v] = number of children of v that are current matches of the
	// target of pattern edge e, for v a current match of the source.
	cnt := make([][]int32, len(edges))
	type removal struct {
		u int
		v graph.NodeID
	}
	var queue []removal
	removeMatch := func(u int, v graph.NodeID) {
		if sim[u].Remove(v) {
			queue = append(queue, removal{u, v})
		}
	}
	// All counters are initialized from the same snapshot of the candidate
	// sets before any removal is applied; otherwise a removal during
	// initialization would be double-counted (once by the shrunken set, once
	// by the queue).
	for e, pe := range edges {
		cnt[e] = make([]int32, n)
		for v := range sim[pe.From] {
			c := int32(0)
			for _, w := range g.Out(v) {
				if sim[pe.To].Has(w) && carries(g, pe.Color, v, w) {
					c++
				}
			}
			cnt[e][v] = c
		}
	}
	for e, pe := range edges {
		for v := range sim[pe.From] {
			if cnt[e][v] == 0 {
				removeMatch(pe.From, v)
			}
		}
	}

	// Refinement: each removal of (u', v') decrements the support counters of
	// v's parents for every pattern edge into u'.
	inEdges := make([][]int, np) // pattern edges indexed by target node
	for e, pe := range edges {
		inEdges[pe.To] = append(inEdges[pe.To], e)
	}
	for len(queue) > 0 {
		rm := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range inEdges[rm.u] {
			src, color := edges[e].From, edges[e].Color
			for _, v := range g.In(rm.v) {
				if !sim[src].Has(v) || !carries(g, color, v, rm.v) {
					continue
				}
				cnt[e][v]--
				if cnt[e][v] == 0 {
					removeMatch(src, v)
				}
			}
		}
	}

	if !sim.Total() {
		return rel.NewRelation(np)
	}
	return sim
}

// carries reports whether data edge (v, w) can image a pattern edge of the
// given color: any edge for a plain pattern edge, and only an edge labeled
// color for a colored one.
func carries(g *graph.Graph, color string, v, w graph.NodeID) bool {
	return color == "" || g.EdgeLabel(v, w) == color
}
