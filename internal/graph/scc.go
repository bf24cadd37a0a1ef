package graph

// SCC computes the strongly connected components of g with an iterative
// Tarjan algorithm. It returns comp, mapping each node to its component
// index, and the number of components. Component indices are in reverse
// topological order of the condensation (a component's index is greater than
// those of components it can reach... Tarjan emits components in reverse
// topological order, i.e. comp[u] >= comp[v] whenever there is a path u→v).
func (g *Graph) SCC() (comp []int, n int) {
	nv := g.NumNodes()
	comp = make([]int, nv)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, nv)
	lowlink := make([]int, nv)
	onStack := make([]bool, nv)
	for i := range index {
		index[i] = -1
	}
	var stack []NodeID
	next := 0

	// Explicit DFS stack: each frame tracks the node and the position in its
	// adjacency list.
	type frame struct {
		v  NodeID
		ai int
	}
	var dfs []frame
	for root := 0; root < nv; root++ {
		if index[root] != -1 {
			continue
		}
		dfs = append(dfs[:0], frame{v: root})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			if f.ai < len(g.out[v]) {
				w := g.out[v][f.ai]
				f.ai++
				if index[w] == -1 {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{v: w})
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			// Post-order for v.
			if lowlink[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = n
					if w == v {
						break
					}
				}
				n++
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
		}
	}
	return comp, n
}

// SCCSizes returns, for the given comp labeling, the size of each component.
func SCCSizes(comp []int, n int) []int {
	sizes := make([]int, n)
	for _, c := range comp {
		sizes[c]++
	}
	return sizes
}

// NontrivialSCC reports, per component, whether it is nontrivial: it has at
// least two nodes, or consists of a single node with a self-loop.
func (g *Graph) NontrivialSCC(comp []int, n int) []bool {
	sizes := SCCSizes(comp, n)
	nt := make([]bool, n)
	for c, s := range sizes {
		if s >= 2 {
			nt[c] = true
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.HasEdge(v, v) {
			nt[comp[v]] = true
		}
	}
	return nt
}

// RankInfinite marks nodes whose topological rank is ∞ (Section 5.2).
const RankInfinite = int(^uint(0) >> 2)

// TopologicalRanks computes the topological rank r(v) of every node,
// following Section 5.2: r(v) = 0 if [v] is a trivial leaf SCC, r(v) = ∞ if v
// reaches a nontrivial SCC, and r(v) = max{1 + r(w) : edge [v]→[w]} otherwise.
func (g *Graph) TopologicalRanks() []int {
	comp, n := g.SCC()
	nt := g.NontrivialSCC(comp, n)
	// Condensation adjacency: component c's out-neighbour components.
	// Tarjan numbering is reverse-topological: edges go from higher comp
	// index to lower or equal (equal only within a component). So processing
	// components in increasing index order processes successors first.
	compRank := make([]int, n)
	for c := 0; c < n; c++ {
		if nt[c] {
			compRank[c] = RankInfinite
		}
	}
	// Gather per-component out-edges lazily while walking nodes grouped by
	// component. Build buckets first.
	buckets := make([][]NodeID, n)
	for v := 0; v < g.NumNodes(); v++ {
		c := comp[v]
		buckets[c] = append(buckets[c], v)
	}
	for c := 0; c < n; c++ {
		r := compRank[c]
		for _, v := range buckets[c] {
			for _, w := range g.out[v] {
				cw := comp[w]
				if cw == c {
					continue
				}
				rw := compRank[cw]
				if rw == RankInfinite {
					r = RankInfinite
				} else if r != RankInfinite && rw+1 > r {
					r = rw + 1
				}
			}
		}
		compRank[c] = r
	}
	ranks := make([]int, g.NumNodes())
	for v := range ranks {
		ranks[v] = compRank[comp[v]]
	}
	return ranks
}

// IsDAG reports whether the graph has no directed cycles (including
// self-loops).
func (g *Graph) IsDAG() bool {
	comp, n := g.SCC()
	for _, nt := range g.NontrivialSCC(comp, n) {
		if nt {
			return false
		}
	}
	return true
}
