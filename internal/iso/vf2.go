// Package iso implements subgraph isomorphism for normal patterns: a
// VF2-style enumerator (the paper's batch baseline, Cordella et al. 2004)
// and the incremental maintenance engine IncIsoMat whose unboundedness
// Section 7 proves. Matching follows the paper's definition: an injective
// mapping f from pattern nodes to data nodes such that f(v) satisfies the
// predicate of v and every pattern edge maps to a data edge (the match is
// the subgraph induced by the image of f).
package iso

import (
	"sort"

	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Embedding maps each pattern node (by index) to a data node.
type Embedding []graph.NodeID

// Key returns a canonical comparable form of the embedding.
func (em Embedding) Key() string {
	b := make([]byte, 0, len(em)*4)
	for _, v := range em {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// Enumerate returns all embeddings of p in g, up to limit (limit <= 0 means
// unlimited). The pattern must be normal; bounds are ignored.
func Enumerate(p *pattern.Pattern, g graph.View, limit int) []Embedding {
	s := newSearch(p, g, limit)
	s.extend(0)
	return s.found
}

// Count returns the number of embeddings of p in g.
func Count(p *pattern.Pattern, g graph.View) int {
	return len(Enumerate(p, g, 0))
}

// Has reports whether at least one embedding exists (P ⊴iso G).
func Has(p *pattern.Pattern, g graph.View) bool {
	return len(Enumerate(p, g, 1)) > 0
}

// search carries the VF2 state: a partial mapping extended one pattern node
// at a time along a connectivity-first order, with predicate, degree and
// edge-consistency pruning.
type search struct {
	p     *pattern.Pattern
	g     graph.View
	limit int
	order []int // pattern nodes in search order
	// anchor: pattern-node → fixed data node (runAnchored's pin; nil in a
	// one-shot enumeration).
	anchor map[int]graph.NodeID

	mapped  []graph.NodeID // pattern node → data node or -1
	used    map[graph.NodeID]bool
	found   []Embedding
	visited int64 // search-tree nodes, for cost reporting
}

func newSearch(p *pattern.Pattern, g graph.View, limit int) *search {
	s := &search{
		p:     p,
		g:     g,
		limit: limit,
		used:  make(map[graph.NodeID]bool),
	}
	s.mapped = make([]graph.NodeID, p.NumNodes())
	for i := range s.mapped {
		s.mapped[i] = -1
	}
	s.order = searchOrder(p)
	return s
}

// searchOrder picks a connectivity-first ordering: start from the highest
// degree pattern node, then repeatedly take the unvisited node with the
// most already-ordered neighbours (ties by degree).
func searchOrder(p *pattern.Pattern) []int {
	np := p.NumNodes()
	ordered := make([]bool, np)
	order := make([]int, 0, np)
	deg := func(u int) int { return len(p.Out(u)) + len(p.In(u)) }
	for len(order) < np {
		best, bestScore, bestDeg := -1, -1, -1
		for u := 0; u < np; u++ {
			if ordered[u] {
				continue
			}
			score := 0
			for _, w := range p.Out(u) {
				if ordered[w] {
					score++
				}
			}
			for _, w := range p.In(u) {
				if ordered[w] {
					score++
				}
			}
			if score > bestScore || (score == bestScore && deg(u) > bestDeg) {
				best, bestScore, bestDeg = u, score, deg(u)
			}
		}
		ordered[best] = true
		order = append(order, best)
	}
	return order
}

// runAnchored re-runs a long-lived search with pattern edge pe pinned to
// the data edge (v0, v1), reusing the search order and scratch. The
// returned slice is overwritten by the next run.
func (s *search) runAnchored(pe pattern.Edge, v0, v1 graph.NodeID) []Embedding {
	if s.anchor == nil {
		s.anchor = make(map[int]graph.NodeID, 2)
	}
	clear(s.anchor)
	clear(s.used) // backtracking leaves false entries behind
	s.anchor[pe.From], s.anchor[pe.To] = v0, v1
	s.found = s.found[:0]
	s.extend(0)
	return s.found
}

func (s *search) done() bool {
	return s.limit > 0 && len(s.found) >= s.limit
}

func (s *search) extend(depth int) {
	if s.done() {
		return
	}
	if depth == len(s.order) {
		em := make(Embedding, len(s.mapped))
		copy(em, s.mapped)
		s.found = append(s.found, em)
		return
	}
	u := s.order[depth]
	for _, v := range s.candidates(u) {
		if s.used[v] || !s.feasible(u, v) {
			continue
		}
		s.mapped[u] = v
		s.used[v] = true
		s.visited++
		s.extend(depth + 1)
		s.used[v] = false
		s.mapped[u] = -1
		if s.done() {
			return
		}
	}
}

// candidates returns data nodes to try for pattern node u: the anchored
// node if fixed, otherwise neighbours of already-mapped pattern neighbours,
// otherwise every node.
func (s *search) candidates(u int) []graph.NodeID {
	if v, ok := s.anchor[u]; ok {
		return []graph.NodeID{v}
	}
	// Prefer extending along a mapped pattern neighbour: candidates are the
	// corresponding data neighbours.
	for _, w := range s.p.In(u) {
		if s.mapped[w] >= 0 {
			return s.g.Out(s.mapped[w])
		}
	}
	for _, w := range s.p.Out(u) {
		if s.mapped[w] >= 0 {
			return s.g.In(s.mapped[w])
		}
	}
	all := make([]graph.NodeID, s.g.NumNodes())
	for i := range all {
		all[i] = i
	}
	return all
}

// feasible checks predicate, degree and edge consistency of assigning v to u.
func (s *search) feasible(u int, v graph.NodeID) bool {
	if !s.p.Pred(u).Eval(s.g.Attrs(v)) {
		return false
	}
	if s.g.OutDegree(v) < s.p.OutDegree(u) || s.g.InDegree(v) < len(s.p.In(u)) {
		return false
	}
	for _, w := range s.p.Out(u) {
		if w == u { // pattern self-loop: the image needs a data self-loop
			if !s.g.HasEdge(v, v) {
				return false
			}
			continue
		}
		if x := s.mapped[w]; x >= 0 && !s.g.HasEdge(v, x) {
			return false
		}
	}
	for _, w := range s.p.In(u) {
		if w == u {
			continue // already checked via the Out loop
		}
		if x := s.mapped[w]; x >= 0 && !s.g.HasEdge(x, v) {
			return false
		}
	}
	return true
}

// enumerateBrute enumerates embeddings by trying every injective assignment
// — the test reference, exponential and only usable on tiny inputs.
func enumerateBrute(p *pattern.Pattern, g graph.View) []Embedding {
	np, n := p.NumNodes(), g.NumNodes()
	var found []Embedding
	mapped := make([]graph.NodeID, np)
	used := make([]bool, n)
	var rec func(u int)
	rec = func(u int) {
		if u == np {
			em := make(Embedding, np)
			copy(em, mapped)
			found = append(found, em)
			return
		}
		for v := 0; v < n; v++ {
			if used[v] || !p.Pred(u).Eval(g.Attrs(v)) {
				continue
			}
			ok := true
			for _, w := range p.Out(u) {
				if w < u && !g.HasEdge(v, mapped[w]) {
					ok = false
					break
				}
				if w == u && !g.HasEdge(v, v) {
					ok = false
					break
				}
			}
			if ok {
				for _, w := range p.In(u) {
					if w < u && !g.HasEdge(mapped[w], v) {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			mapped[u] = v
			used[v] = true
			rec(u + 1)
			used[v] = false
		}
	}
	rec(0)
	sortEmbeddings(found)
	return found
}

func sortEmbeddings(ems []Embedding) {
	sort.Slice(ems, func(i, j int) bool {
		for k := range ems[i] {
			if ems[i][k] != ems[j][k] {
				return ems[i][k] < ems[j][k]
			}
		}
		return false
	})
}
