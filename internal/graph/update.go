package graph

import "fmt"

// Op is the kind of a unit update.
type Op uint8

const (
	// InsertEdge adds an edge.
	InsertEdge Op = iota
	// DeleteEdge removes an edge.
	DeleteEdge
)

func (o Op) String() string {
	if o == InsertEdge {
		return "+"
	}
	return "-"
}

// Update is a unit update: a single edge insertion or deletion, the ΔG unit
// of Section 4. Batch updates are []Update (insertions and deletions mixed).
type Update struct {
	Op       Op
	From, To NodeID
}

func (u Update) String() string { return fmt.Sprintf("%s(%d,%d)", u.Op, u.From, u.To) }

// Inverse returns the update that undoes u.
func (u Update) Inverse() Update {
	inv := u
	if u.Op == InsertEdge {
		inv.Op = DeleteEdge
	} else {
		inv.Op = InsertEdge
	}
	return inv
}

// Apply executes a single update against g, reporting whether the graph
// changed (inserting an existing edge or deleting a missing one is a no-op).
func (g *Graph) Apply(u Update) (changed bool, err error) {
	switch u.Op {
	case InsertEdge:
		return g.AddEdge(u.From, u.To)
	case DeleteEdge:
		return g.RemoveEdge(u.From, u.To), nil
	default:
		return false, fmt.Errorf("graph: unknown update op %d", u.Op)
	}
}

// ApplyAll executes a batch of updates in order and returns the updates that
// actually changed the graph (the effective ΔG).
func (g *Graph) ApplyAll(us []Update) ([]Update, error) {
	eff := make([]Update, 0, len(us))
	for _, u := range us {
		changed, err := g.Apply(u)
		if err != nil {
			return eff, err
		}
		if changed {
			eff = append(eff, u)
		}
	}
	return eff, nil
}

// NetUpdates collapses a list of updates to its net effect against the
// current state of g: per edge only the final operation matters, and
// operations restating the graph's current state vanish — so an insert
// and a delete of the same edge inside one list annihilate entirely. This
// is the cancellation step of the paper's minDelta reduction; the
// incremental engines and the continuous-query writer both use it. An
// insertion between nodes g does not have cannot take effect and vanishes
// too, so whatever is left applies.
func NetUpdates(g View, ups []Update) []Update {
	final := make(map[[2]NodeID]Op, len(ups))
	order := make([][2]NodeID, 0, len(ups))
	for _, up := range ups {
		key := [2]NodeID{up.From, up.To}
		if _, seen := final[key]; !seen {
			order = append(order, key)
		}
		final[key] = up.Op
	}
	net := make([]Update, 0, len(order))
	n := uint(g.NumNodes())
	for _, key := range order {
		op := final[key]
		if (op == InsertEdge) == g.HasEdge(key[0], key[1]) {
			continue // restates current state: cancelled
		}
		if uint(key[0]) >= n || uint(key[1]) >= n {
			continue // an insertion (no edge to delete has such an end) that cannot apply
		}
		net = append(net, Update{Op: op, From: key[0], To: key[1]})
	}
	return net
}

// Insert is shorthand for an edge-insertion update.
func Insert(u, v NodeID) Update { return Update{Op: InsertEdge, From: u, To: v} }

// Delete is shorthand for an edge-deletion update.
func Delete(u, v NodeID) Update { return Update{Op: DeleteEdge, From: u, To: v} }
