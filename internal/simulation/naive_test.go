package simulation

import (
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// The reference side of the property tests, for uncolored patterns: the
// definition of (dual) simulation and its checkers.

// NaiveMaximum computes the maximum simulation by iterating the definition
// to a fixpoint, in O(|Vp||V| · |Ep||E|) time.
func NaiveMaximum(p *pattern.Pattern, g *graph.Graph) rel.Relation {
	np, n := p.NumNodes(), g.NumNodes()
	sim := rel.NewRelation(np)
	for u := 0; u < np; u++ {
		pred := p.Pred(u)
		for v := 0; v < n; v++ {
			if pred.Eval(g.Attrs(v)) {
				sim[u].Add(v)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < np; u++ {
			for _, v := range sim[u].Sorted() {
				ok := true
				for _, u2 := range p.Out(u) {
					found := false
					for _, w := range g.Out(v) {
						if sim[u2].Has(w) {
							found = true
							break
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if !ok {
					sim[u].Remove(v)
					changed = true
				}
			}
		}
	}
	if !sim.Total() {
		return rel.NewRelation(np)
	}
	return sim
}

// Holds verifies that r is a simulation of P in G: every pair satisfies the
// predicate and the child condition, and every pattern node is matched. An
// empty relation trivially holds.
func Holds(p *pattern.Pattern, g *graph.Graph, r rel.Relation) bool {
	if r.Empty() {
		return true
	}
	if !r.Total() {
		return false
	}
	for u := range r {
		for v := range r[u] {
			if !p.Pred(u).Eval(g.Attrs(v)) {
				return false
			}
			for _, u2 := range p.Out(u) {
				found := false
				for _, w := range g.Out(v) {
					if r[u2].Has(w) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
	}
	return true
}

// DualHolds verifies both directions of the dual-simulation conditions.
func DualHolds(p *pattern.Pattern, g *graph.Graph, r rel.Relation) bool {
	if !Holds(p, g, r) {
		return false
	}
	for u := range r {
		for v := range r[u] {
			for _, u1 := range p.In(u) {
				found := false
				for _, w := range g.In(v) {
					if r[u1].Has(w) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
	}
	return true
}
