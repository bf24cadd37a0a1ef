package iso

import (
	"slices"

	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Count returns the number of embeddings of p in g.
func Count(p *pattern.Pattern, g graph.View) int {
	return len(Enumerate(p, g, 0))
}

// Has reports whether at least one embedding exists (P ⊴iso G).
func Has(p *pattern.Pattern, g graph.View) bool {
	return len(Enumerate(p, g, 1)) > 0
}

// enumerateBrute enumerates embeddings by trying every injective assignment
// — the test reference, exponential and only usable on tiny inputs. It
// returns them sorted.
func enumerateBrute(p *pattern.Pattern, g graph.View) []Embedding {
	np, n := p.NumNodes(), g.NumNodes()
	var found []Embedding
	mapped := make([]graph.NodeID, np)
	used := make([]bool, n)
	// edge reports whether data edge (x, y) images pattern edge (u, w).
	edge := func(u, w int, x, y graph.NodeID) bool {
		c := p.Color(u, w)
		return g.HasEdge(x, y) && (c == "" || g.EdgeLabel(x, y) == c)
	}
	var rec func(u int)
	rec = func(u int) {
		if u == np {
			found = append(found, slices.Clone(Embedding(mapped)))
			return
		}
		for v := 0; v < n; v++ {
			if used[v] || !p.Pred(u).Eval(g.Attrs(v)) {
				continue
			}
			ok := true
			for _, w := range p.Out(u) {
				if w < u && !edge(u, w, v, mapped[w]) || w == u && !edge(u, u, v, v) {
					ok = false
					break
				}
			}
			for _, w := range p.In(u) {
				if w < u && !edge(w, u, mapped[w], v) {
					ok = false
					break
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

// sortEmbeddings orders embeddings lexicographically.
func sortEmbeddings(ems []Embedding) {
	slices.SortFunc(ems, func(a, b Embedding) int { return slices.Compare(a, b) })
}

// sameEmbeddings reports whether a and b hold the same embeddings, in any
// order (it sorts both).
func sameEmbeddings(a, b []Embedding) bool {
	sortEmbeddings(a)
	sortEmbeddings(b)
	return slices.EqualFunc(a, b, slices.Equal)
}
