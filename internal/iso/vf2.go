// Package iso implements subgraph isomorphism for normal patterns: a
// VF2-style enumerator (the paper's batch baseline, Cordella et al. 2004)
// and the incremental maintenance engine IncIsoMat whose unboundedness
// Section 7 proves. Matching follows the paper's definition: an injective
// mapping f from pattern nodes to data nodes such that f(v) satisfies the
// predicate of v and every pattern edge maps to a data edge (the match is
// the subgraph induced by the image of f). A colored pattern edge maps only
// to a data edge carrying its color as label.
//
// By injectivity an embedding maps at most one pattern edge onto a given
// data edge (the one between its ends' preimages; a pattern has one edge
// per ordered node pair). So the embeddings an inserted edge completes are
// found exactly once by one anchored run per pattern edge, and the
// engine keeps each embedding once, under an integer id, on the posting
// list of every data edge it uses (storage layout: inciso.go).
package iso

import (
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Embedding maps each pattern node (by index) to a data node.
type Embedding []graph.NodeID

// Enumerate returns all embeddings of p in g, up to limit (limit <= 0 means
// unlimited). The pattern must be normal; bounds are ignored.
func Enumerate(p *pattern.Pattern, g graph.View, limit int) []Embedding {
	s := newSearch(p, g, limit)
	s.extend(0)
	return s.found
}

// search carries the VF2 state: a partial mapping extended one pattern node
// at a time along a connectivity-first order, with predicate, degree and
// edge-consistency pruning.
type search struct {
	p       *pattern.Pattern
	g       graph.View
	limit   int
	colored bool  // some pattern edge is colored
	order   []int // pattern nodes in search order
	// An anchored run pins its order's first npin nodes to pin, and hands
	// each embedding to emit instead of collecting it in found.
	npin int
	pin  [2]graph.NodeID
	emit func([]graph.NodeID)

	mapped  []graph.NodeID // pattern node → data node or -1
	used    map[graph.NodeID]bool
	found   []Embedding
	visited int64 // search-tree nodes, for cost reporting
}

func newSearch(p *pattern.Pattern, g graph.View, limit int) *search {
	s := &search{
		p:       p,
		g:       g,
		limit:   limit,
		colored: p.HasColors(),
		used:    make(map[graph.NodeID]bool),
	}
	s.mapped = make([]graph.NodeID, p.NumNodes())
	for i := range s.mapped {
		s.mapped[i] = -1
	}
	s.order = searchOrder(p)
	return s
}

// searchOrder picks a connectivity-first ordering: start from the given
// nodes (once each), or else from the highest degree pattern node, then
// repeatedly take the unvisited node with the most already-ordered
// neighbours (ties by degree).
func searchOrder(p *pattern.Pattern, start ...int) []int {
	np := p.NumNodes()
	ordered := make([]bool, np)
	order := make([]int, 0, np)
	for _, u := range start {
		if !ordered[u] {
			ordered[u] = true
			order = append(order, u)
		}
	}
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

// runAnchored runs the search along order, which starts at the ends of a
// pattern edge, with those pinned to the data edge (v0, v1): one pin when
// it is a self-loop. Backtracking leaves every used entry false, so a run
// needs no reset.
func (s *search) runAnchored(order []int, v0, v1 graph.NodeID) {
	s.order, s.npin, s.pin = order, 2, [2]graph.NodeID{v0, v1}
	if v0 == v1 {
		s.npin = 1
	}
	s.extend(0)
}

func (s *search) done() bool {
	return s.limit > 0 && len(s.found) >= s.limit
}

func (s *search) extend(depth int) {
	if s.done() {
		return
	}
	if depth == len(s.order) {
		if s.emit != nil {
			s.emit(s.mapped)
			return
		}
		em := make(Embedding, len(s.mapped))
		copy(em, s.mapped)
		s.found = append(s.found, em)
		return
	}
	u := s.order[depth]
	var cands []graph.NodeID
	if depth < s.npin {
		cands = s.pin[depth : depth+1]
	} else {
		cands = s.candidates(u)
	}
	for _, v := range cands {
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

// candidates returns data nodes to try for unpinned pattern node u: the
// neighbours of an already-mapped pattern neighbour, otherwise every node.
// An anchored run on a connected pattern never gets to every node: its
// order is connectivity-first from the pins.
func (s *search) candidates(u int) []graph.NodeID {
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
			if !s.edge(u, u, v, v) {
				return false
			}
			continue
		}
		if x := s.mapped[w]; x >= 0 && !s.edge(u, w, v, x) {
			return false
		}
	}
	for _, w := range s.p.In(u) {
		if w == u {
			continue // already checked via the Out loop
		}
		if x := s.mapped[w]; x >= 0 && !s.edge(w, u, x, v) {
			return false
		}
	}
	return true
}

// edge reports whether data edge (x, y) can image pattern edge (u, w): it
// exists and, if the pattern edge is colored, carries that color.
func (s *search) edge(u, w int, x, y graph.NodeID) bool {
	if !s.g.HasEdge(x, y) {
		return false
	}
	if !s.colored {
		return true
	}
	c := s.p.Color(u, w)
	return c == "" || s.g.EdgeLabel(x, y) == c
}
