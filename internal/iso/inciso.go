package iso

// IncIsoMat: incremental maintenance of the embedding set under edge
// updates. Theorem 7.1 shows the problem is unbounded (and NP-complete for
// fixed data graphs), so no bounded algorithm exists; this engine is the
// natural affected-area heuristic the paper's analysis frames: deletions
// drop the embeddings using the deleted edge, insertions enumerate
// embeddings anchored on the inserted edge. Its per-update cost is the
// anchored search cost — exponential in the worst case, exactly as
// Theorem 7.1 predicts.

import (
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Engine maintains Miso(P, G) under edge updates (IncIsoMat).
type Engine struct {
	p *pattern.Pattern
	// g is the graph the anchored searches read and the unit updates
	// mutate: the owned graph passed to NewEngine, or a private overlay
	// over a shared base (NewEngineShared).
	g          graph.Mutable
	ov         *graph.Overlay // the private overlay (nil in owned mode)
	pedges     []pattern.Edge
	search     *search // the anchored searches' order and scratch, reused across inserts
	embeddings map[string]Embedding
	// edgeUse[dataEdge] = embedding keys with some pattern edge mapped to it.
	edgeUse map[[2]graph.NodeID]map[string]bool
}

// NewEngine computes the initial embedding set with the batch enumerator.
// The pattern must be normal. The engine owns g: all updates must go
// through Insert/Delete/Apply.
func NewEngine(p *pattern.Pattern, g *graph.Graph) *Engine {
	return buildEngine(p, g, nil)
}

// NewEngineShared builds an engine that reads base through a private
// update overlay instead of owning a graph replica. Unit updates
// accumulate in the overlay; after driving one batch of them, the caller
// must invoke Commit and then apply the same effective updates to base
// before the next batch (contq's Registry follows this protocol).
func NewEngineShared(p *pattern.Pattern, base graph.View) *Engine {
	ov := graph.NewOverlay(base)
	return buildEngine(p, ov, ov)
}

func buildEngine(p *pattern.Pattern, g graph.Mutable, ov *graph.Overlay) *Engine {
	e := &Engine{
		p:          p,
		g:          g,
		ov:         ov,
		pedges:     p.Edges(),
		search:     newSearch(p, g, 0),
		embeddings: make(map[string]Embedding),
		edgeUse:    make(map[[2]graph.NodeID]map[string]bool),
	}
	for _, em := range Enumerate(p, g, 0) {
		e.add(em)
	}
	return e
}

// Commit ends one batch of unit updates on a shared engine: it discards
// the overlay diff, after which the base owner must apply those updates to
// the base. A no-op on owned engines.
func (e *Engine) Commit() {
	if e.ov != nil {
		e.ov.Reset()
	}
}

func (e *Engine) add(em Embedding) bool {
	key := em.Key()
	if _, ok := e.embeddings[key]; ok {
		return false
	}
	e.embeddings[key] = em
	for _, pe := range e.pedges {
		edge := [2]graph.NodeID{em[pe.From], em[pe.To]}
		if e.edgeUse[edge] == nil {
			e.edgeUse[edge] = make(map[string]bool)
		}
		e.edgeUse[edge][key] = true
	}
	return true
}

func (e *Engine) remove(key string) {
	em, ok := e.embeddings[key]
	if !ok {
		return
	}
	delete(e.embeddings, key)
	for _, pe := range e.pedges {
		edge := [2]graph.NodeID{em[pe.From], em[pe.To]}
		if uses := e.edgeUse[edge]; uses != nil {
			delete(uses, key)
			if len(uses) == 0 {
				delete(e.edgeUse, edge)
			}
		}
	}
}

// Count returns |Miso(P, G)| (number of embeddings).
func (e *Engine) Count() int { return len(e.embeddings) }

// Embeddings returns the current embeddings in unspecified order.
func (e *Engine) Embeddings() []Embedding {
	out := make([]Embedding, 0, len(e.embeddings))
	for _, em := range e.embeddings {
		out = append(out, em)
	}
	return out
}

// Insert adds edge (v0, v1) and discovers the new embeddings, all of which
// must map at least one pattern edge onto the inserted edge — the search is
// anchored there, once per pattern edge.
func (e *Engine) Insert(v0, v1 graph.NodeID) bool {
	ok, _ := e.InsertDelta(v0, v1)
	return ok
}

// InsertDelta is Insert additionally returning the embeddings the
// insertion created — the ΔM of IncIsoMat's insertion case.
func (e *Engine) InsertDelta(v0, v1 graph.NodeID) (bool, []Embedding) {
	added, err := e.g.AddEdge(v0, v1)
	if err != nil || !added {
		return false, nil
	}
	var newEms []Embedding
	for _, pe := range e.pedges {
		// A self-loop pattern edge can only map to a data self-loop, and a
		// data self-loop can only host a self-loop pattern edge.
		if (pe.From == pe.To) != (v0 == v1) {
			continue
		}
		for _, em := range e.search.runAnchored(pe, v0, v1) {
			if e.add(em) {
				newEms = append(newEms, em)
			}
		}
	}
	return true, newEms
}

// Delete removes edge (v0, v1) and drops every embedding that used it.
func (e *Engine) Delete(v0, v1 graph.NodeID) bool {
	ok, _ := e.DeleteDelta(v0, v1)
	return ok
}

// DeleteDelta is Delete additionally returning the embeddings the deletion
// destroyed — the ΔM of IncIsoMat's deletion case.
func (e *Engine) DeleteDelta(v0, v1 graph.NodeID) (bool, []Embedding) {
	if !e.g.RemoveEdge(v0, v1) {
		return false, nil
	}
	var dropped []Embedding
	if uses := e.edgeUse[[2]graph.NodeID{v0, v1}]; uses != nil {
		keys := make([]string, 0, len(uses))
		for k := range uses {
			keys = append(keys, k)
		}
		for _, k := range keys {
			dropped = append(dropped, e.embeddings[k])
			e.remove(k)
		}
	}
	return true, dropped
}

// Apply processes a batch of updates one at a time, committing the batch
// at the end (shared engines discard their overlay diff).
func (e *Engine) Apply(ups []graph.Update) {
	for _, up := range ups {
		if up.Op == graph.InsertEdge {
			e.Insert(up.From, up.To)
		} else {
			e.Delete(up.From, up.To)
		}
	}
	e.Commit()
}
