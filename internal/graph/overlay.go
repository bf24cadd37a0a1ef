package graph

import (
	"fmt"
	"slices"
)

// Overlay is a Mutable view over a shared read-only base: edge insertions
// and deletions land in a private diff of size O(|ΔG|) while every read
// sees base ⊕ diff. It is the mechanism that lets an incremental engine
// run its repair algorithm — which interleaves reads of old and new graph
// states with the mutations themselves — against a canonical graph it does
// not own: the engine writes into its overlay during the repair, and once
// the owner commits the same updates to the base, Reset discards the diff.
//
// The diff is a sparse set over the dense node ids: slot[v] indexes a row
// of touched holding v's adjusted adjacency, and is believed only when
// that row names v back — so Reset is a truncate, and a read of an
// untouched node costs an array load and a compare before it falls through
// to the base. The slot array (4 bytes per node) is allocated on the first
// write: an overlay that is never written to holds no per-node memory.
//
// Contract with the base owner: after every repair call that mutated the
// overlay, the owner must apply exactly those effective updates to the
// base before the next repair (contq's Registry commits the batch right
// after the engine fan-out). The overlay itself is not safe for concurrent
// mutation; concurrent reads are safe while no one is writing to either
// the overlay or the base.
type Overlay struct {
	base    View
	slot    []int32      // node → index into touched; valid iff touched[slot[v]].v == v
	touched []overlayRow // rows beyond len keep their out/in arrays for the next generation
	pending int          // base edges removed + non-base edges added
	dm      int          // NumEdges delta
	// unlabeled records labelled base edges removed at some point in this
	// generation: like Graph.RemoveEdge, removal drops the label, so a
	// re-added edge comes back unlabeled even though its label still sits
	// in the base. Nil until the first such removal.
	unlabeled map[[2]NodeID]struct{}
}

// overlayRow is the adjusted adjacency of one node the diff touches. Each
// direction is materialized (a copy of the base slice) the first time an
// update needs it and patched in place from then on.
type overlayRow struct {
	v             NodeID
	out, in       []NodeID
	hasOut, hasIn bool
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base View) *Overlay { return &Overlay{base: base} }

// Base returns the view the overlay reads through.
func (o *Overlay) Base() View { return o.base }

// Pending returns the number of edge changes the diff currently holds.
func (o *Overlay) Pending() int { return o.pending }

// Reset discards the diff: the overlay becomes a transparent view of the
// base again. Call it after the base owner has committed the updates the
// overlay absorbed.
func (o *Overlay) Reset() {
	o.touched = o.touched[:0]
	o.pending, o.dm = 0, 0
	if len(o.unlabeled) > 0 {
		clear(o.unlabeled)
	}
}

// row returns the diff row of v, nil when the diff does not touch v.
func (o *Overlay) row(v NodeID) *overlayRow {
	if uint(v) < uint(len(o.slot)) {
		if i := int(o.slot[v]); i < len(o.touched) && o.touched[i].v == v {
			return &o.touched[i]
		}
	}
	return nil
}

// touch returns the diff row of v, claiming a recycled one on first touch.
// The pointer is good until the next touch.
func (o *Overlay) touch(v NodeID) *overlayRow {
	if r := o.row(v); r != nil {
		return r
	}
	if v >= len(o.slot) { // first write, or the base appended nodes since
		o.slot = append(o.slot, make([]int32, o.base.NumNodes()-len(o.slot))...)
	}
	i := len(o.touched)
	if i < cap(o.touched) {
		o.touched = o.touched[:i+1]
		r := &o.touched[i] // recycled: empty it, keeping the arrays (no pointer is stored)
		r.v, r.out, r.in, r.hasOut, r.hasIn = v, r.out[:0], r.in[:0], false, false
	} else {
		o.touched = append(o.touched, overlayRow{v: v})
	}
	o.slot[v] = int32(i)
	return &o.touched[i]
}

// NumNodes returns |V| (nodes are append-only and owned by the base).
func (o *Overlay) NumNodes() int { return o.base.NumNodes() }

// NumEdges returns |E| of base ⊕ diff.
func (o *Overlay) NumEdges() int { return o.base.NumEdges() + o.dm }

// HasNode reports whether v is a valid node identifier.
func (o *Overlay) HasNode(v NodeID) bool { return o.base.HasNode(v) }

// Attrs returns the attribute tuple of node v.
func (o *Overlay) Attrs(v NodeID) Tuple { return o.base.Attrs(v) }

// HasEdge reports whether (u, v) is present in base ⊕ diff. Every update
// of an edge leaving u materializes u's out-row, so the row decides when
// it exists and the base decides otherwise.
func (o *Overlay) HasEdge(u, v NodeID) bool {
	if r := o.row(u); r != nil && r.hasOut {
		return slices.Contains(r.out, v)
	}
	return o.base.HasEdge(u, v)
}

// EdgeLabel returns the label of (u, v): overlay-added edges are
// unlabeled, and an edge that was removed in this generation — even one
// later re-added — masks the base's label, mirroring Graph.RemoveEdge
// dropping labels.
func (o *Overlay) EdgeLabel(u, v NodeID) string {
	if len(o.unlabeled) > 0 {
		if _, masked := o.unlabeled[[2]NodeID{u, v}]; masked {
			return ""
		}
	}
	return o.base.EdgeLabel(u, v)
}

// Out returns the out-neighbours of v in base ⊕ diff. The slice is owned
// by the overlay (or the base when v is untouched): do not mutate or
// retain it across updates.
func (o *Overlay) Out(v NodeID) []NodeID {
	if r := o.row(v); r != nil && r.hasOut {
		return r.out
	}
	return o.base.Out(v)
}

// In returns the in-neighbours of v in base ⊕ diff. Same ownership rules
// as Out.
func (o *Overlay) In(v NodeID) []NodeID {
	if r := o.row(v); r != nil && r.hasIn {
		return r.in
	}
	return o.base.In(v)
}

// OutDegree returns the number of children of v.
func (o *Overlay) OutDegree(v NodeID) int { return len(o.Out(v)) }

// InDegree returns the number of parents of v.
func (o *Overlay) InDegree(v NodeID) int { return len(o.In(v)) }

// Degree returns in-degree + out-degree of v.
func (o *Overlay) Degree(v NodeID) int { return len(o.Out(v)) + len(o.In(v)) }

// state reports whether (u, v) is present in base ⊕ diff and in the base
// itself, with a single probe of the base.
func (o *Overlay) state(u, v NodeID) (present, inBase bool) {
	inBase = o.base.HasEdge(u, v)
	if r := o.row(u); r != nil && r.hasOut {
		return slices.Contains(r.out, v), inBase
	}
	return inBase, inBase
}

// outRow and inRow return the row of v with that direction materialized.
func (o *Overlay) outRow(v NodeID) *overlayRow {
	r := o.touch(v)
	if !r.hasOut {
		r.out, r.hasOut = append(r.out, o.base.Out(v)...), true
	}
	return r
}

func (o *Overlay) inRow(v NodeID) *overlayRow {
	r := o.touch(v)
	if !r.hasIn {
		r.in, r.hasIn = append(r.in, o.base.In(v)...), true
	}
	return r
}

// AddEdge inserts (u, v) into the diff, mirroring Graph.AddEdge semantics.
func (o *Overlay) AddEdge(u, v NodeID) (added bool, err error) {
	if !o.HasNode(u) || !o.HasNode(v) {
		return false, fmt.Errorf("graph: overlay AddEdge(%d, %d): node out of range [0, %d)", u, v, o.NumNodes())
	}
	present, inBase := o.state(u, v)
	if present {
		return false, nil
	}
	if inBase {
		o.pending-- // undoes this generation's removal
	} else {
		o.pending++
	}
	r := o.outRow(u)
	r.out = append(r.out, v)
	r = o.inRow(v)
	r.in = append(r.in, u)
	o.dm++
	return true, nil
}

// RemoveEdge deletes (u, v) from the diff, reporting whether it existed in
// base ⊕ diff.
func (o *Overlay) RemoveEdge(u, v NodeID) bool {
	present, inBase := o.state(u, v)
	if !present {
		return false
	}
	if !inBase {
		o.pending-- // undoes this generation's insertion
	} else {
		o.pending++
		if o.base.EdgeLabel(u, v) != "" {
			if o.unlabeled == nil {
				o.unlabeled = make(map[[2]NodeID]struct{})
			}
			o.unlabeled[[2]NodeID{u, v}] = struct{}{}
		}
	}
	r := o.outRow(u)
	r.out = removeOne(r.out, v)
	r = o.inRow(v)
	r.in = removeOne(r.in, u)
	o.dm--
	return true
}

// Apply executes a single update, mirroring Graph.Apply.
func (o *Overlay) Apply(u Update) (changed bool, err error) {
	switch u.Op {
	case InsertEdge:
		return o.AddEdge(u.From, u.To)
	case DeleteEdge:
		return o.RemoveEdge(u.From, u.To), nil
	default:
		return false, fmt.Errorf("graph: unknown update op %d", u.Op)
	}
}

var _ Mutable = (*Overlay)(nil)
