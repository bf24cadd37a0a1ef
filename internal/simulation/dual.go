package simulation

// Dual simulation (Ma et al. 2011), the topology-preserving variant the
// paper's Section 2.3 remark points to: a match must satisfy both the child
// condition of plain simulation and the symmetric parent condition — for
// each pattern edge (u', u) and match v of u there must be a parent v' of v
// matching u'. Dual simulation prunes the "dangling ancestors" plain
// simulation admits and approximates isomorphic subgraphs more closely.

import (
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// DualMaximum computes the unique maximum dual-simulation match for a
// normal pattern, by the same counting fixpoint as Maximum extended with
// parent-support counters. Colored pattern edges are honoured as in Maximum.
func DualMaximum(p *pattern.Pattern, g *graph.Graph) rel.Relation {
	np, n := p.NumNodes(), g.NumNodes()
	sim := rel.NewRelation(np)
	for u := 0; u < np; u++ {
		pred := p.Pred(u)
		needChild := p.OutDegree(u) > 0
		needParent := len(p.In(u)) > 0
		for v := 0; v < n; v++ {
			if needChild && g.OutDegree(v) == 0 {
				continue
			}
			if needParent && g.InDegree(v) == 0 {
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
	// fwd[e][v]: children of v matching the target (v a source match);
	// bwd[e][v]: parents of v matching the source (v a target match).
	fwd := make([][]int32, len(edges))
	bwd := make([][]int32, len(edges))
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
	for e, pe := range edges {
		fwd[e] = make([]int32, n)
		bwd[e] = make([]int32, n)
		for v := range sim[pe.From] {
			c := int32(0)
			for _, w := range g.Out(v) {
				if sim[pe.To].Has(w) && carries(g, pe.Color, v, w) {
					c++
				}
			}
			fwd[e][v] = c
		}
		for v := range sim[pe.To] {
			c := int32(0)
			for _, w := range g.In(v) {
				if sim[pe.From].Has(w) && carries(g, pe.Color, w, v) {
					c++
				}
			}
			bwd[e][v] = c
		}
	}
	for e, pe := range edges {
		for v := range sim[pe.From] {
			if fwd[e][v] == 0 {
				removeMatch(pe.From, v)
			}
		}
		for v := range sim[pe.To] {
			if bwd[e][v] == 0 {
				removeMatch(pe.To, v)
			}
		}
	}

	outEdges := make([][]int, np)
	inEdges := make([][]int, np)
	for e, pe := range edges {
		outEdges[pe.From] = append(outEdges[pe.From], e)
		inEdges[pe.To] = append(inEdges[pe.To], e)
	}
	for len(queue) > 0 {
		rm := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// Removing a target match starves the forward support of its
		// parents; removing a source match starves the backward support of
		// its children.
		for _, e := range inEdges[rm.u] {
			src, color := edges[e].From, edges[e].Color
			for _, w := range g.In(rm.v) {
				if !sim[src].Has(w) || !carries(g, color, w, rm.v) {
					continue
				}
				fwd[e][w]--
				if fwd[e][w] == 0 {
					removeMatch(src, w)
				}
			}
		}
		for _, e := range outEdges[rm.u] {
			tgt, color := edges[e].To, edges[e].Color
			for _, w := range g.Out(rm.v) {
				if !sim[tgt].Has(w) || !carries(g, color, rm.v, w) {
					continue
				}
				bwd[e][w]--
				if bwd[e][w] == 0 {
					removeMatch(tgt, w)
				}
			}
		}
	}

	if !sim.Total() {
		return rel.NewRelation(np)
	}
	return sim
}
