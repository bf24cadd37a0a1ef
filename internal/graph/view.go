package graph

// View is the read-only face of a data graph: adjacency in both
// directions, node attributes and edge labels. Every matching engine reads
// the graph exclusively through this interface, which is what lets many
// standing patterns share one canonical *Graph instead of each owning a
// replica — the shared-storage model of RETE-style incremental query
// engines.
//
// Guarantees a View implementation must provide:
//
//   - Node identifiers are dense ints 0..NumNodes()-1 and never disappear
//     (the substrate supports edge updates only; nodes are append-only).
//   - Out/In return slices owned by the view: callers must not mutate or
//     retain them across updates to the underlying storage.
//   - Concurrent reads are safe as long as no writer is mutating the
//     underlying storage at the same time. Serializing writers against
//     readers is the owner's job (contq's Registry does exactly that).
type View interface {
	NumNodes() int
	NumEdges() int
	HasNode(v NodeID) bool
	HasEdge(u, v NodeID) bool
	Attrs(v NodeID) Tuple
	Out(v NodeID) []NodeID
	In(v NodeID) []NodeID
	OutDegree(v NodeID) int
	InDegree(v NodeID) int
	Degree(v NodeID) int
	EdgeLabel(u, v NodeID) string
}

// Mutable is a View that also accepts edge updates. *Graph implements it
// for owned storage; *Overlay implements it for engines that borrow a
// shared base View and must keep their writes private.
type Mutable interface {
	View
	AddEdge(u, v NodeID) (added bool, err error)
	RemoveEdge(u, v NodeID) bool
	Apply(u Update) (changed bool, err error)
}

var (
	_ View    = (*Graph)(nil)
	_ Mutable = (*Graph)(nil)
)

// CloneView materializes any View into an owned *Graph (attribute tuples
// and label strings are shared structurally, as in Clone). A *Graph takes
// its bulk structural Clone; any other view pays an edge-by-edge rebuild.
func CloneView(v View) *Graph {
	if g, ok := v.(*Graph); ok {
		return g.Clone()
	}
	n := v.NumNodes()
	g := NewWithCapacity(n, v.NumEdges())
	for i := 0; i < n; i++ {
		g.AddNode(v.Attrs(i))
	}
	for u := 0; u < n; u++ {
		for _, w := range v.Out(u) {
			g.AddEdge(u, w) //nolint:errcheck // endpoints exist by construction
			if l := v.EdgeLabel(u, w); l != "" {
				g.SetEdgeLabel(u, w, l) //nolint:errcheck // edge just added
			}
		}
	}
	return g
}
