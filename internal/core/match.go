// Package core implements the paper's primary contribution: graph pattern
// matching via bounded simulation (Section 3). Algorithm Match computes the
// unique maximum match Mksim(P, G) of a b-pattern P in a data graph G in
// O(|V||E| + |Ep||V|² + |Vp||V|) time (Theorem 3.1).
//
// The implementation follows Fig. 3 of the paper: mat() candidate sets are
// initialized from predicates with the out-degree guard, and a premv-style
// worklist removes nodes violating connectivity/distance constraints until a
// fixpoint. The anc/desc candidate sets and the X′ counter matrix of the
// complexity proof appear here as per-pattern-edge support counters, either
// enumerated through a distance Iterator (BFS oracle) or by scanning
// candidate pairs against a Dist oracle (distance matrix, 2-hop, landmarks)
// — the three variants compared in Fig. 17(a,b). Colored pattern edges (the
// Section 2.2 remark) are honoured under every oracle: each is enumerated by
// a walk over its color's data edges (colored.go).
package core

import (
	"gpm/internal/distance"
	"gpm/internal/graph"
	"gpm/internal/par"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// Options configure Match.
type Options struct {
	// Oracle answers distance queries. When nil, Match builds a BFS oracle
	// over g (no preprocessing, no extra memory).
	Oracle distance.Oracle
	// Workers bounds the parallelism of the candidate-set construction
	// (the predicate scan over all data nodes): 0 selects the default
	// (par.DefaultWorkers), 1 runs serially.
	Workers int
}

// Option mutates Options.
type Option func(*Options)

// WithOracle selects the distance oracle used by Match.
func WithOracle(o distance.Oracle) Option {
	return func(opts *Options) { opts.Oracle = o }
}

// WithWorkers bounds the parallelism of the candidate-set construction.
func WithWorkers(n int) Option {
	return func(opts *Options) { opts.Workers = n }
}

// Match computes the maximum bounded-simulation match Mksim(P, G). The
// result is empty iff P does not match G (no total match exists).
func Match(p *pattern.Pattern, g *graph.Graph, options ...Option) rel.Relation {
	var opts Options
	for _, o := range options {
		o(&opts)
	}
	if opts.Oracle == nil {
		opts.Oracle = distance.NewBFS(g)
	}
	return match(p, g, opts.Oracle, opts.Workers)
}

// candidates computes mat(u) — the predicate-satisfying nodes with the
// out-degree guard (lines 5-6 of Fig. 3) — scanning the data nodes in
// parallel. Workers collect hits into private slices that are merged
// serially, so the scan itself is contention-free.
func candidates(p *pattern.Pattern, g *graph.Graph, u, workers int) rel.Set {
	n := g.NumNodes()
	pred := p.Pred(u)
	needChild := p.OutDegree(u) > 0
	w := par.Resolve(workers, n)
	if w == 1 {
		set := rel.NewSet()
		for v := 0; v < n; v++ {
			if needChild && g.OutDegree(v) == 0 {
				continue
			}
			if pred.Eval(g.Attrs(v)) {
				set.Add(v)
			}
		}
		return set
	}
	parts := make([][]graph.NodeID, w)
	par.For(n, w, func(worker, v int) {
		if needChild && g.OutDegree(v) == 0 {
			return
		}
		if pred.Eval(g.Attrs(v)) {
			parts[worker] = append(parts[worker], v)
		}
	})
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	set := make(rel.Set, total)
	for _, part := range parts {
		for _, v := range part {
			set.Add(v)
		}
	}
	return set
}

func match(p *pattern.Pattern, g *graph.Graph, oracle distance.Oracle, workers int) rel.Relation {
	np := p.NumNodes()
	mat := rel.NewRelation(np)

	// Lines 5-6 of Fig. 3: mat(u) = predicate-satisfying nodes, with the
	// out-degree guard.
	for u := 0; u < np; u++ {
		mat[u] = candidates(p, g, u, workers)
		if mat[u].Len() == 0 {
			return rel.NewRelation(np) // line 12: some pattern node unmatched
		}
	}

	// The walk is chosen once per pattern edge: a colored edge walks its
	// color's data edges, a plain edge enumerates through the oracle when it
	// is an Iterator and scans candidate pairs against Dist otherwise.
	edges := p.Edges()
	iters := make([]distance.Iterator, len(edges))
	plain, _ := oracle.(distance.Iterator)
	for e, pe := range edges {
		iters[e] = plain
		if pe.Color != "" {
			iters[e] = colorWalk{g, pe.Color}
		}
	}

	// The X′ matrix of the complexity proof: cnt[e][v'] counts candidates v
	// of edge e's target within e's bound of v'. A zero count is exactly the
	// premv condition (line 7).
	cnt := make([]map[graph.NodeID]int32, len(edges))
	type removal struct {
		u int
		v graph.NodeID
	}
	var queue []removal
	removeMatch := func(u int, v graph.NodeID) {
		if mat[u].Remove(v) {
			queue = append(queue, removal{u, v})
		}
	}

	// All counters are initialized from the same snapshot of the candidate
	// sets before any removal is applied; otherwise a removal during
	// initialization would be double-counted (once by the shrunken set, once
	// by the worklist cascade).
	for e, pe := range edges {
		cnt[e] = make(map[graph.NodeID]int32, mat[pe.From].Len())
		tgt := mat[pe.To]
		if iter := iters[e]; iter != nil {
			for v := range mat[pe.From] {
				c := int32(0)
				iter.DescNonempty(v, pe.Bound, func(w graph.NodeID, d int) bool {
					if tgt.Has(w) {
						c++
					}
					return true
				})
				cnt[e][v] = c
			}
		} else {
			for v := range mat[pe.From] {
				c := int32(0)
				for w := range tgt {
					if pattern.WithinBound(distance.NonemptyDist(oracle, g, v, w), pe.Bound) {
						c++
					}
				}
				cnt[e][v] = c
			}
		}
	}
	for e, pe := range edges {
		for v, c := range cnt[e] {
			if c == 0 {
				removeMatch(pe.From, v)
			}
		}
	}

	// Lines 8-17: propagate removals. Removing v from mat(u) decrements the
	// support counter of every candidate ancestor v'' (within the bound of a
	// pattern edge (u'', u)) and cascades when a counter reaches zero.
	inEdges := make([][]int, np)
	for e, pe := range edges {
		inEdges[pe.To] = append(inEdges[pe.To], e)
	}
	for len(queue) > 0 {
		rm := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range inEdges[rm.u] {
			pe := edges[e]
			src := mat[pe.From]
			if iter := iters[e]; iter != nil {
				iter.AncNonempty(rm.v, pe.Bound, func(w graph.NodeID, d int) bool {
					if src.Has(w) {
						cnt[e][w]--
						if cnt[e][w] == 0 {
							removeMatch(pe.From, w)
						}
					}
					return true
				})
			} else {
				for w := range src {
					if pattern.WithinBound(distance.NonemptyDist(oracle, g, w, rm.v), pe.Bound) {
						cnt[e][w]--
						if cnt[e][w] == 0 {
							removeMatch(pe.From, w)
						}
					}
				}
			}
		}
		if mat[rm.u].Len() == 0 {
			return rel.NewRelation(np) // line 12
		}
	}

	if !mat.Total() {
		return rel.NewRelation(np)
	}
	return mat
}

// MatchBFS runs Match with the on-demand BFS oracle ("Match with BFS").
func MatchBFS(p *pattern.Pattern, g *graph.Graph) rel.Relation {
	return Match(p, g, WithOracle(distance.NewBFS(g)))
}

// MatchMatrix runs Match after building the all-pairs distance matrix
// ("Matrix+Match"). The matrix build is included in the call.
func MatchMatrix(p *pattern.Pattern, g *graph.Graph) rel.Relation {
	return Match(p, g, WithOracle(distance.NewMatrix(g)))
}
