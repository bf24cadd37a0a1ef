// Package graph implements the data-graph substrate of the paper: directed
// graphs G = (V, E, fA) whose nodes carry attribute tuples, with support for
// dynamic edge insertions and deletions, traversals, strongly connected
// components and topological ranks.
//
// Node identifiers are dense ints assigned by AddNode, which keeps adjacency
// in flat slices and makes per-node auxiliary arrays cheap — the access
// pattern every algorithm in this repository relies on.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node of a data graph. IDs are dense: 0..N-1.
type NodeID = int

// Graph is a directed data graph with attributed nodes. It is not safe for
// concurrent mutation; concurrent reads are safe.
type Graph struct {
	attrs   []Tuple    // attribute tuple per node
	out     [][]NodeID // out-adjacency, unordered
	in      [][]NodeID // in-adjacency, unordered
	edges   map[[2]NodeID]struct{}
	elabels map[[2]NodeID]string // edge labels (relationship colors); sparse
	m       int                  // number of edges
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{edges: make(map[[2]NodeID]struct{})}
}

// NewWithCapacity returns an empty graph with room pre-allocated for n nodes
// and m edges.
func NewWithCapacity(n, m int) *Graph {
	return &Graph{
		attrs: make([]Tuple, 0, n),
		out:   make([][]NodeID, 0, n),
		in:    make([][]NodeID, 0, n),
		edges: make(map[[2]NodeID]struct{}, m),
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.attrs) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// AddNode appends a node carrying the given attribute tuple and returns its
// identifier. A nil tuple is stored as an empty tuple.
func (g *Graph) AddNode(attrs Tuple) NodeID {
	if attrs == nil {
		attrs = Tuple{}
	}
	id := len(g.attrs)
	g.attrs = append(g.attrs, attrs)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// Attrs returns the attribute tuple of node v. The caller must not mutate it
// while algorithms hold references to the graph.
func (g *Graph) Attrs(v NodeID) Tuple { return g.attrs[v] }

// HasNode reports whether v is a valid node identifier.
func (g *Graph) HasNode(v NodeID) bool { return v >= 0 && v < len(g.attrs) }

// HasEdge reports whether the edge (u, v) is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.edges[[2]NodeID{u, v}]
	return ok
}

// AddEdge inserts the directed edge (u, v). It returns an error if either
// endpoint does not exist, and reports added=false if the edge was already
// present (the graph is a simple digraph; parallel edges collapse).
func (g *Graph) AddEdge(u, v NodeID) (added bool, err error) {
	if !g.HasNode(u) || !g.HasNode(v) {
		return false, fmt.Errorf("graph: AddEdge(%d, %d): node out of range [0, %d)", u, v, len(g.attrs))
	}
	key := [2]NodeID{u, v}
	if _, ok := g.edges[key]; ok {
		return false, nil
	}
	g.edges[key] = struct{}{}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
	return true, nil
}

// RemoveEdge deletes the directed edge (u, v), reporting whether it existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	key := [2]NodeID{u, v}
	if _, ok := g.edges[key]; !ok {
		return false
	}
	delete(g.edges, key)
	delete(g.elabels, key)
	g.out[u] = removeOne(g.out[u], v)
	g.in[v] = removeOne(g.in[v], u)
	g.m--
	return true
}

func removeOne(s []NodeID, x NodeID) []NodeID {
	for i, y := range s {
		if y == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// Out returns the out-neighbours (children) of v. The slice is owned by the
// graph and must not be mutated or retained across updates.
func (g *Graph) Out(v NodeID) []NodeID { return g.out[v] }

// In returns the in-neighbours (parents) of v. Same ownership rules as Out.
func (g *Graph) In(v NodeID) []NodeID { return g.in[v] }

// OutDegree returns the number of children of v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree returns the number of parents of v.
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// Degree returns in-degree + out-degree of v.
func (g *Graph) Degree(v NodeID) int { return len(g.out[v]) + len(g.in[v]) }

// Edges calls fn for every edge (u, v) in an unspecified but deterministic
// order (by source, then insertion order). Returning false stops iteration.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := range g.out {
		for _, v := range g.out[u] {
			if !fn(u, v) {
				return
			}
		}
	}
}

// EdgeList returns all edges sorted lexicographically.
func (g *Graph) EdgeList() [][2]NodeID {
	es := make([][2]NodeID, 0, g.m)
	for e := range g.edges {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// Clone returns a deep copy of the graph (attribute tuples are shared
// structurally — they are copied shallowly since algorithms treat them as
// immutable).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		attrs: make([]Tuple, len(g.attrs)),
		out:   make([][]NodeID, len(g.out)),
		in:    make([][]NodeID, len(g.in)),
		edges: make(map[[2]NodeID]struct{}, len(g.edges)),
		m:     g.m,
	}
	copy(c.attrs, g.attrs)
	for v := range g.out {
		c.out[v] = append([]NodeID(nil), g.out[v]...)
		c.in[v] = append([]NodeID(nil), g.in[v]...)
	}
	for e := range g.edges {
		c.edges[e] = struct{}{}
	}
	if len(g.elabels) > 0 {
		c.elabels = make(map[[2]NodeID]string, len(g.elabels))
		for e, l := range g.elabels {
			c.elabels[e] = l
		}
	}
	return c
}

func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d}", g.NumNodes(), g.NumEdges())
}
