package iso

// IncIsoMat: incremental maintenance of the embedding set under edge
// updates. Theorem 7.1 shows the problem is unbounded (and NP-complete for
// fixed data graphs), so no bounded algorithm exists; this engine is the
// natural affected-area heuristic the paper's analysis frames: deletions
// drop the embeddings using the deleted edge, insertions enumerate
// embeddings anchored on the inserted edge, once per pattern edge (which
// finds each new embedding exactly once: see the package doc). Its
// per-update cost is the anchored search cost — exponential in the worst
// case, exactly as Theorem 7.1 predicts.
//
// Storage: embedding id i is the tuple emb[i·|Vp| : (i+1)·|Vp|], and freed
// ids wait on a free list. uses maps each data edge in use to its posting
// list, the ids of the embeddings mapping a pattern edge onto it;
// at[i·|Ep| + j] is id i's position in the list of the edge pattern edge j
// maps onto, so a drop swap-removes an id from its lists in O(|Ep|). The
// match relation is the embeddings' projection to pairs, refcounted; it is
// total or empty by construction, so it is the visible result as it stands.

import (
	"slices"
	"sync"
	"sync/atomic"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// Engine maintains Miso(P, G) under edge updates (IncIsoMat).
//
// The engine is safe for concurrent use: writers are serialized by an
// internal mutex, and readers (Result, Count, Embeddings) block only while
// a writer is applying an update.
type Engine struct {
	mu sync.RWMutex
	// g is the graph the anchored searches read and the updates mutate:
	// the owned graph passed to NewEngine, or a private overlay over a
	// shared base (NewEngineShared).
	g      graph.Mutable
	ov     *graph.Overlay // the private overlay (nil in owned mode)
	np     int            // |Vp|, the width of an embedding
	pedges []pattern.Edge
	// orders[j] is the search order anchored at pattern edge j: its ends
	// first (one node for a self-loop), then connectivity-first.
	orders [][]int
	search *search // the anchored searches' scratch, reused across inserts
	born   []int   // ids the current insertion created

	// The embeddings and their posting lists (laid out in the file header).
	emb   []graph.NodeID
	at    []int
	free  []int
	slots int // ids handed out so far, freed ones included
	uses  map[[2]graph.NodeID][]int

	// The pair projection: refcounts, the relation, the write's change-set
	// (armed by BatchDelta, nil otherwise) and the cached Result.
	ref   map[rel.Pair]int
	match rel.Relation
	cs    *rel.ChangeSet
	snap  atomic.Pointer[rel.Relation]
}

// NewEngine computes the initial embedding set with the batch enumerator.
// The pattern must be normal. The engine owns g: all updates must go
// through Insert/Delete/Apply/BatchDelta.
func NewEngine(p *pattern.Pattern, g *graph.Graph) *Engine {
	return buildEngine(p, g, nil)
}

// NewEngineShared builds an engine that reads base through a private
// update overlay instead of owning a graph replica. Updates accumulate in
// the overlay until the batch ends (BatchDelta and Apply end it themselves;
// after unit Insert/Delete calls the caller invokes Commit); then the
// caller must apply the same effective updates to base before the next
// batch (contq's Registry follows this protocol).
func NewEngineShared(p *pattern.Pattern, base graph.View) *Engine {
	ov := graph.NewOverlay(base)
	return buildEngine(p, ov, ov)
}

func buildEngine(p *pattern.Pattern, g graph.Mutable, ov *graph.Overlay) *Engine {
	e := &Engine{
		g:      g,
		ov:     ov,
		np:     p.NumNodes(),
		pedges: p.Edges(),
		search: newSearch(p, g, 0),
		uses:   make(map[[2]graph.NodeID][]int),
		ref:    make(map[rel.Pair]int),
		match:  rel.NewRelation(p.NumNodes()),
	}
	for _, pe := range e.pedges {
		e.orders = append(e.orders, searchOrder(p, pe.From, pe.To))
	}
	e.search.emit = func(em []graph.NodeID) { e.born = append(e.born, e.add(em)) }
	for _, em := range Enumerate(p, g, 0) {
		e.add(em)
	}
	return e
}

// Commit ends one batch of unit updates on a shared engine: it discards
// the overlay diff, after which the base owner must apply those updates to
// the base. A no-op on owned engines.
func (e *Engine) Commit() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.commit()
}

func (e *Engine) commit() {
	if e.ov != nil {
		e.ov.Reset()
	}
}

// add stores embedding em under a fresh id, indexes it and counts its
// pairs, returning the id.
func (e *Engine) add(em []graph.NodeID) int {
	id := e.slots
	if n := len(e.free); n > 0 {
		id, e.free = e.free[n-1], e.free[:n-1]
		copy(e.emb[id*e.np:], em)
	} else {
		e.slots++
		e.emb = append(e.emb, em...)
		e.at = append(e.at, make([]int, len(e.pedges))...)
	}
	for j, pe := range e.pedges {
		key := [2]graph.NodeID{em[pe.From], em[pe.To]}
		e.at[id*len(e.pedges)+j] = len(e.uses[key])
		e.uses[key] = append(e.uses[key], id)
	}
	for u, v := range em {
		pr := rel.Pair{U: u, V: v}
		if e.ref[pr]++; e.ref[pr] == 1 {
			e.match[u].Add(v)
			e.cs.NoteAdded(u, v)
			e.snap.Store(nil)
		}
	}
	return id
}

// drop removes embedding id from its posting lists and its pairs' counts
// and frees the id.
func (e *Engine) drop(id int) {
	ne := len(e.pedges)
	em := e.embedding(id)
	for j, pe := range e.pedges {
		key := [2]graph.NodeID{em[pe.From], em[pe.To]}
		list, pos := e.uses[key], e.at[id*ne+j]
		last := list[len(list)-1]
		list[pos] = last
		e.at[last*ne+e.edgeOnto(last, key)] = pos
		if list = list[:len(list)-1]; len(list) == 0 {
			delete(e.uses, key)
		} else {
			e.uses[key] = list
		}
	}
	for u, v := range em {
		pr := rel.Pair{U: u, V: v}
		if e.ref[pr]--; e.ref[pr] == 0 {
			delete(e.ref, pr)
			e.match[u].Remove(v)
			e.cs.NoteRemoved(u, v)
			e.snap.Store(nil)
		}
	}
	e.free = append(e.free, id)
}

// edgeOnto returns the one pattern edge embedding id maps onto data edge key.
func (e *Engine) edgeOnto(id int, key [2]graph.NodeID) int {
	em := e.embedding(id)
	return slices.IndexFunc(e.pedges, func(pe pattern.Edge) bool { return em[pe.From] == key[0] && em[pe.To] == key[1] })
}

func (e *Engine) embedding(id int) Embedding { return e.emb[id*e.np : (id+1)*e.np] }

// Count returns |Miso(P, G)| (number of embeddings).
func (e *Engine) Count() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.slots - len(e.free)
}

// Embeddings returns copies of the current embeddings in unspecified order.
func (e *Engine) Embeddings() []Embedding {
	e.mu.RLock()
	defer e.mu.RUnlock()
	freed := make([]bool, e.slots)
	for _, id := range e.free {
		freed[id] = true
	}
	out := make([]Embedding, 0, e.slots-len(e.free))
	for id := range e.slots {
		if !freed[id] {
			out = append(out, slices.Clone(e.embedding(id)))
		}
	}
	return out
}

// Result returns the match relation: the union of the embeddings projected
// to (pattern node, data node) pairs.
//
// The returned relation is a shared immutable snapshot: callers must not
// mutate it. It is cached until a write changes the relation.
func (e *Engine) Result() rel.Relation {
	if p := e.snap.Load(); p != nil {
		return *p
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if p := e.snap.Load(); p != nil {
		return *p
	}
	r := e.match.Clone()
	e.snap.Store(&r)
	return r
}

// Insert adds edge (v0, v1) and discovers the new embeddings, all of which
// map one pattern edge onto the inserted edge — the search is anchored
// there, once per pattern edge.
func (e *Engine) Insert(v0, v1 graph.NodeID) bool {
	ok, _ := e.InsertDelta(v0, v1)
	return ok
}

// InsertDelta is Insert additionally returning the embeddings the
// insertion created — the ΔM of IncIsoMat's insertion case.
func (e *Engine) InsertDelta(v0, v1 graph.NodeID) (bool, []Embedding) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.insert(v0, v1) {
		return false, nil
	}
	var added []Embedding
	for _, id := range e.born {
		added = append(added, slices.Clone(e.embedding(id)))
	}
	return true, added
}

func (e *Engine) insert(v0, v1 graph.NodeID) bool {
	added, err := e.g.AddEdge(v0, v1)
	if err != nil || !added {
		return false
	}
	e.born = e.born[:0]
	for j, pe := range e.pedges {
		// A self-loop pattern edge can only map to a data self-loop, and a
		// data self-loop can only host a self-loop pattern edge.
		if (pe.From == pe.To) == (v0 == v1) {
			e.search.runAnchored(e.orders[j], v0, v1)
		}
	}
	return true
}

// Delete removes edge (v0, v1) and drops every embedding that used it.
func (e *Engine) Delete(v0, v1 graph.NodeID) bool {
	ok, _ := e.DeleteDelta(v0, v1)
	return ok
}

// DeleteDelta is Delete additionally returning the embeddings the deletion
// destroyed — the ΔM of IncIsoMat's deletion case.
func (e *Engine) DeleteDelta(v0, v1 graph.NodeID) (bool, []Embedding) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var dropped []Embedding
	for _, id := range e.uses[[2]graph.NodeID{v0, v1}] {
		dropped = append(dropped, slices.Clone(e.embedding(id)))
	}
	return e.delete(v0, v1), dropped
}

// delete removes edge (v0, v1) and drops the embeddings on its posting list.
func (e *Engine) delete(v0, v1 graph.NodeID) bool {
	if !e.g.RemoveEdge(v0, v1) {
		return false
	}
	key := [2]graph.NodeID{v0, v1}
	for list := e.uses[key]; len(list) > 0; list = e.uses[key] {
		e.drop(list[len(list)-1])
	}
	return true
}

// BatchDelta applies a batch of updates one at a time and reports the
// visible ΔM of the whole batch (with intra-batch remove/add
// cancellation). A shared engine discards its overlay diff at the end.
func (e *Engine) BatchDelta(ups []graph.Update) rel.Delta {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cs = rel.NewChangeSet(e.match)
	for _, up := range ups {
		if up.Op == graph.InsertEdge {
			e.insert(up.From, up.To)
		} else {
			e.delete(up.From, up.To)
		}
	}
	d := e.cs.End(e.match)
	e.cs = nil
	e.commit()
	return d
}

// Apply is BatchDelta with the delta dropped.
func (e *Engine) Apply(ups []graph.Update) { e.BatchDelta(ups) }
