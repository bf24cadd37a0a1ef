// Package incbsim implements incremental bounded simulation (Section 6.3):
// the unit-update algorithms IncBMatch⁺/IncBMatch⁻ and the batch algorithm
// IncBMatch, plus the distance-matrix baseline IncBMatchᵐ of Fan et
// al. 2010 that the paper compares against in Fig. 19.
//
// Following Proposition 6.1, the engine reduces bounded simulation in G to
// simulation over the pair graph. IncBMatch⁻ asks an existence question —
// does v still have a descendant within the bound that matches u'? — so for
// every pattern edge (u, u') with bound k the engine keeps, per match v of
// u, one witness: a match w of u' within k hops (an ss pair of Table III).
// Its invariant is that every matched pair has a live witness per out-edge;
// how many other supports v has is never counted. A graph update flips the
// within-bound status of node pairs only inside the km-hop neighbourhood of
// the touched edge (km = the maximum pattern bound), so the engine
// re-examines exactly that affected area — and it does so once per batch,
// not once per update:
//
//   - A batch is netted (same-edge cancellation) and split into a deletion
//     phase and an insertion phase. As each update of a phase goes into the
//     graph, a probe around its edge collects the affected sources: in a
//     deletion phase the matches, in an insertion phase the candidates,
//     that reach its tail with enough bound left to get from its head to a
//     node their pattern edges care about. The resulting set S is complete
//     (update.go gives the argument): a match outside it keeps every path
//     to its witnesses and a candidate outside it gains no target.
//   - Once a deletion phase is in, every match of S is walked on the new
//     graph until each of its out-edges has met a target, which becomes the
//     witness; the walk ends there, not at the rim of the k-hop ball. A
//     match left without a witness is removed, and removals cascade as in
//     incremental simulation: the ancestors whose witness was the removed
//     pair search for another. An insertion phase walks no match at all —
//     inserting edges and promoting pairs only adds supports, so every
//     witness stands — and no candidate either: every candidate of S seeds
//     the candidate-closure promotion, whose greatest-fixpoint refinement
//     discards the seeds that gained no target. The seeds include every
//     cs/cc pair that gained one, so the promotion finds every pair a
//     per-update sweep would, and it promotes only pairs supported by the
//     match, so it finds no more.
//
// The unit operations are one-element batches of the same code. The cost of
// a batch is the walks of its S, so it is bounded by a recompute's whatever
// |ΔG| is: a match is walked once, in the deletion phase, and a candidate
// by the promotion alone, in the insertion phase.
//
// Bounded walks run on a live BFS view of the graph. This is the deviation
// from Section 6.3: the paper's IncBMatch asks a maintained landmark index
// (Section 6.2/6.4) for distances; since the repair re-measures a source with
// one bounded walk, nothing here asks for a single-pair distance, and package
// landmark is a standalone maintained oracle (core.Match, Fig. 20) that no
// engine carries.
//
// Two constructors, one engine. New is handed the *graph.Graph it mutates;
// NewShared is handed an overlay over a base it must not touch. The engine
// sees a graph.Mutable either way, and the whole difference is which one the
// constructor passed in and whether endChanges has an overlay to reset.
// Routing New through an overlay over a private base as well would write
// every update twice (once into the overlay, once into the base when the
// write ends) and delete no code: the engine has no owned-mode branch left to
// remove.
//
// This is also the repair core of incremental simulation: simulation is
// bounded simulation with every bound 1, and package incsim builds its
// engine on this one. On such a pattern every walk has radius 1, which
// distance.BFS answers from the adjacency list alone.
package incbsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gpm/internal/distance"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
	"gpm/internal/resultgraph"
)

// Stats tallies the affected area AFF touched by incremental maintenance
// since the engine was built (or since ResetStats). For a given update
// history the tallies are the same on every run and for every worker count.
type Stats struct {
	Removals       int64
	Promotions     int64
	WitnessUpdates int64 // witnesses set or moved to another target
	ClosureSize    int64
	// PairsExamined counts the (source, node) pairs the repair's walks
	// visited: a deletion phase's witness searches (a match of the affected
	// set until it has its witnesses), the searches for a witness to replace
	// a removed one, and the promotion's walks (its candidate closure upward
	// and each closure pair's supports downward). The probes that find the
	// affected set are not counted.
	PairsExamined int64
}

// Total returns a scalar |AFF| measure: the sum of all five tallies, the
// fields ResetStats zeroes.
func (s Stats) Total() int64 {
	return s.Removals + s.Promotions + s.WitnessUpdates + s.ClosureSize + s.PairsExamined
}

// minus returns the tallies accumulated since an earlier reading t.
func (s Stats) minus(t Stats) Stats {
	return Stats{
		Removals:       s.Removals - t.Removals,
		Promotions:     s.Promotions - t.Promotions,
		WitnessUpdates: s.WitnessUpdates - t.WitnessUpdates,
		ClosureSize:    s.ClosureSize - t.ClosureSize,
		PairsExamined:  s.PairsExamined - t.PairsExamined,
	}
}

// Engine maintains the maximum bounded-simulation match of a b-pattern
// over a mutable data graph. The engine owns the graph: all edge updates
// must go through Insert/Delete/Batch.
//
// The engine is safe for concurrent use: writers (Insert/Delete/Batch/
// Apply) are serialized by an internal mutex, and readers (Result,
// ResultGraph, IsMatch, IsCandidate, Stats) may run concurrently with
// each other and block only while a writer is applying an update.
type Engine struct {
	mu sync.RWMutex
	p  *pattern.Pattern
	// g is the graph every algorithm reads and writes. In owned mode it is
	// the *graph.Graph passed to New; in shared mode (NewShared) it is a
	// private overlay over a base View the engine does not own, so the
	// repair's interleaved old-state probes and mutations stay private
	// while the base is untouched.
	g        graph.Mutable
	ov       *graph.Overlay // g again when it is the private overlay (nil in owned mode)
	edges    []pattern.Edge
	outEdges [][]int
	inEdges  [][]int
	km       int // max pattern bound (Unbounded if any * edge)

	sat   rel.Relation
	match rel.Relation
	// member is the node-major membership table every build and repair path
	// asks instead of probing the sets above: per graph node a row of stride
	// words holding |Vp| match bits, then |Vp| sat bits, then |Vp| bits of
	// promote's tentative matches, bit u of a plane standing for pattern
	// node u — packed, so a pattern of up to 21 nodes costs a node one
	// word. Node ids are dense (graph.View), so a membership test is an
	// array load. match and member are written together by
	// setMatch/clearMatch and by nothing else; the sets stay for what they
	// are good at, enumeration and the ChangeSet.
	member []uint64
	np     int // |Vp|, the bits of a plane
	stride int // ⌈3·|Vp|/64⌉ words per row
	// wit[e][v]: for v ∈ match(src(e)), one w ∈ match(tgt(e)) within
	// bound(e) of v by a nonempty path. Read once per affected match and per
	// matched ancestor of a removed pair, never per node a walk visits.
	wit []map[graph.NodeID]graph.NodeID

	bfs *distance.BFS // live bounded-BFS view of g

	workers int          // parallelism of the repair's re-measurement (0 = default)
	walkers []*walker    // per-worker state of the re-measurement walks; worker 0 walks on bfs itself
	maxOut  []int        // per pattern node: the largest bound over its out-edges (0 if none)
	scratch scratch      // per-phase working state of the repair (update.go)
	presat  rel.Relation // injected sat sets (WithSat), nil to scan the graph

	// Per-write change-set: armed by beginChanges, recorded by cascade and
	// promote, converted to a user-visible ΔM by endChanges. Nil outside a
	// write (and during the initial rebuild).
	cs *rel.ChangeSet

	// snap caches the user-visible Result() snapshot between writes; any
	// write that changes match() invalidates it, so repeated reads are
	// allocation-free and never block behind a writer.
	snap atomic.Pointer[rel.Relation]

	stats Stats
}

// Option configures the engine.
type Option func(*Engine)

// WithWorkers bounds the parallelism of the repair's per-source
// re-measurement: 0 selects the default (par.DefaultWorkers), 1 keeps the
// repair serial. Small affected sets are always re-measured inline.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithSat injects precomputed satisfaction sets instead of scanning the
// graph at build time: sat[u] must equal {v : fV(u) holds on v's attributes}
// over the engine's graph, with len(sat) == the pattern's node count. The
// engine reads the given sets but never mutates them, so one sat relation
// may be shared across many engines — the shared evaluation network injects
// each predicate node's set into every engine that uses the predicate.
func WithSat(sat rel.Relation) Option {
	return func(e *Engine) { e.presat = sat }
}

// workerWalkers returns w walkers over the engine's graph, one per worker,
// allocated lazily and reused across repairs. The first walks on e.bfs: the
// serial paths never run while a fan-out is in flight.
func (e *Engine) workerWalkers(w int) []*walker {
	for len(e.walkers) < w {
		e.walkers = append(e.walkers, &walker{bfs: distance.NewBFS(e.g)})
	}
	return e.walkers[:w]
}

// New builds an engine for b-pattern p over graph g, computing the initial
// match with the batch Match algorithm's refinement.
func New(p *pattern.Pattern, g *graph.Graph, options ...Option) (*Engine, error) {
	return build(p, g, nil, options)
}

// NewShared builds an engine that reads base through a private update
// overlay instead of owning a graph replica: no adjacency is copied, and
// per-pattern memory is the engine's auxiliary structures only. Those are
// the pattern state (match sets, witnesses) plus a few flat arrays
// indexed by graph node, O(|V|) words whatever the match: the membership
// table (8·⌈3·|Vp|/64⌉ bytes per node: three planes of |Vp| bits, so 8
// bytes up to 21 pattern nodes), scratch.at (4 bytes) and, unless every
// bound of p is 1, the stamps of each worker's BFS (12 bytes) — against the
// O(|V|+|E|) of a replica.
//
// Contract: every write call repairs the match against base ⊕ updates and
// then discards the overlay, so the caller must commit exactly those
// effective updates to the base before the next write.
func NewShared(p *pattern.Pattern, base graph.View, options ...Option) (*Engine, error) {
	ov := graph.NewOverlay(base)
	return build(p, ov, ov, options)
}

func build(p *pattern.Pattern, g graph.Mutable, ov *graph.Overlay, options []Option) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.HasColors() {
		return nil, fmt.Errorf("incbsim: colored patterns are batch-only (use core.Match)")
	}
	e := &Engine{p: p, g: g, ov: ov, edges: p.Edges(), km: p.MaxBound(), bfs: distance.NewBFS(g)}
	e.walkers = []*walker{{bfs: e.bfs}}
	for _, o := range options {
		o(e)
	}
	np := p.NumNodes()
	e.outEdges = make([][]int, np)
	e.inEdges = make([][]int, np)
	e.maxOut = make([]int, np)
	for i, pe := range e.edges {
		e.outEdges[pe.From] = append(e.outEdges[pe.From], i)
		e.inEdges[pe.To] = append(e.inEdges[pe.To], i)
		e.maxOut[pe.From] = max(e.maxOut[pe.From], pe.Bound)
	}
	e.np, e.stride = np, (planes*np+63)/64
	e.scratch = scratch{near: make([]int, len(e.edges)), slack: make([]int, np)}
	e.sizeTables()
	if e.presat != nil {
		if len(e.presat) != np {
			return nil, fmt.Errorf("incbsim: WithSat: %d sets for %d pattern nodes", len(e.presat), np)
		}
		e.sat = e.presat
	} else {
		e.sat = rel.NewRelation(np)
		for u := 0; u < np; u++ {
			pred := p.Pred(u)
			for v := 0; v < g.NumNodes(); v++ {
				if pred.Eval(g.Attrs(v)) {
					e.sat[u].Add(v)
				}
			}
		}
	}
	e.rebuild()
	e.stats = Stats{} // the initial match is not incremental maintenance
	return e, nil
}

// The planes of a node's row in the membership table.
const (
	matchPlane = iota
	satPlane
	tentPlane // promote's tentative matches; all zero outside promote
	planes
)

// sizeTables sizes the per-graph-node tables — the membership table and
// scratch.at — for the graph as it stands. Nodes are append-only, so the
// tables only grow; an owned graph may have gained nodes since the last
// write, and those match nothing until a rebuild.
func (e *Engine) sizeTables() {
	n := e.g.NumNodes()
	if len(e.scratch.at) < n {
		e.scratch.at = make([]int32, n) // all zero between phases: nothing to carry over
	}
	if w := n * e.stride; len(e.member) < w {
		e.member = extend(e.member, w-len(e.member))
	}
}

// bit places pattern node u's bit of the given plane in a row of the
// membership table: the match plane, the sat plane, the tentative plane, np
// bits each, one after the other.
func (e *Engine) bit(plane, u int) (word int, mask uint64) {
	b := plane*e.np + u
	return b >> 6, 1 << (b & 63)
}

// has reports whether bit u of the given plane is set in node v's row.
func (e *Engine) has(plane, u int, v graph.NodeID) bool {
	w, m := e.bit(plane, u)
	return e.member[v*e.stride+w]&m != 0
}

func (e *Engine) setBit(plane, u int, v graph.NodeID) {
	w, m := e.bit(plane, u)
	e.member[v*e.stride+w] |= m
}

func (e *Engine) clearBit(plane, u int, v graph.NodeID) {
	w, m := e.bit(plane, u)
	e.member[v*e.stride+w] &^= m
}

func (e *Engine) isMatch(u int, v graph.NodeID) bool { return e.has(matchPlane, u, v) }

func (e *Engine) isCandidate(u int, v graph.NodeID) bool {
	return e.has(satPlane, u, v) && !e.has(matchPlane, u, v)
}

// setMatch and clearMatch are the only writers of match and of its plane
// in the membership table, so the two cannot drift.
func (e *Engine) setMatch(u int, v graph.NodeID) {
	e.match[u].Add(v)
	e.setBit(matchPlane, u, v)
}

func (e *Engine) clearMatch(u int, v graph.NodeID) {
	e.match[u].Remove(v)
	e.clearBit(matchPlane, u, v)
}

// rebuild computes match(), the membership table (all zero so far) and all
// witnesses from sat. Nodes are taken in id order, not in the sets' map
// order: which witness a search finds depends on the removals before it, so
// equal inputs must remove in equal order for Stats to repeat run to run.
func (e *Engine) rebuild() {
	np := e.p.NumNodes()
	e.match = make(rel.Relation, np)
	for u := 0; u < np; u++ {
		e.match[u] = make(rel.Set, e.sat[u].Len())
		for v := range e.sat[u] {
			e.setBit(satPlane, u, v)
			e.setMatch(u, v)
		}
	}
	e.wit = make([]map[graph.NodeID]graph.NodeID, len(e.edges))
	touched := e.scratch.touched[:0]
	for i, pe := range e.edges {
		e.wit[i] = make(map[graph.NodeID]graph.NodeID, e.match[pe.From].Len())
		for v := 0; v < e.g.NumNodes(); v++ {
			if !e.isMatch(pe.From, v) {
				continue
			}
			if w := e.find(i, v); w >= 0 {
				e.wit[i][v] = w
			} else {
				touched = append(touched, touch{i, v})
			}
		}
	}
	e.scratch.touched = touched
	e.drainTouched(touched)
}

// find searches forward from v for a witness of pattern edge ei: the nearest
// match of the edge's target node within its bound by a nonempty path, -1
// when there is none. The search stops at the first it meets.
func (e *Engine) find(ei int, v graph.NodeID) graph.NodeID {
	pe := &e.edges[ei]
	wit := graph.NodeID(-1)
	e.bfs.DescNonempty(v, pe.Bound, func(w graph.NodeID, d int) bool {
		e.stats.PairsExamined++
		if e.isMatch(pe.To, w) {
			wit = w
		}
		return wit < 0
	})
	return wit
}

type pair struct {
	u int
	v graph.NodeID
}

// beginChanges arms the per-write change-set: until endChanges, every
// match() mutation is recorded (with add/remove cancellation) so the write
// can report its visible ΔM. Callers must hold the write lock.
func (e *Engine) beginChanges() { e.cs = rel.NewChangeSet(e.match) }

// endChanges disarms the change-set and converts it to the user-visible
// delta under the totality convention. A visible change invalidates the
// cached Result() snapshot.
func (e *Engine) endChanges() rel.Delta {
	d := e.cs.End(e.match)
	e.cs = nil
	if !d.Empty() {
		e.snap.Store(nil)
	}
	// Shared mode: the repair is done, discard the write's overlay diff
	// (the base owner commits the same updates before the next write).
	if e.ov != nil {
		e.ov.Reset()
	}
	return d
}

// cascade propagates match removals: the match ancestors whose witness was
// a removed pair search for another, and those that find none are removed in
// turn. The ancestors are collected first and searched for afterwards: a
// search is a walk of its own, and the scratch of distance.BFS holds one
// walk at a time. It returns the drained queue for reuse.
func (e *Engine) cascade(queue []pair) []pair {
	orphans := e.scratch.orphans
	for len(queue) > 0 {
		rm := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		e.stats.Removals++
		e.cs.NoteRemoved(rm.u, rm.v)
		for _, ei := range e.outEdges[rm.u] {
			delete(e.wit[ei], rm.v)
		}
		for _, ei := range e.inEdges[rm.u] {
			pe := e.edges[ei]
			orphans = orphans[:0]
			e.bfs.AncNonempty(rm.v, pe.Bound, func(x graph.NodeID, d int) bool {
				if e.isMatch(pe.From, x) && e.wit[ei][x] == rm.v {
					orphans = append(orphans, x)
				}
				return true
			})
			for _, x := range orphans {
				if w := e.find(ei, x); w >= 0 {
					e.wit[ei][x] = w
					e.stats.WitnessUpdates++
				} else {
					e.clearMatch(pe.From, x)
					queue = append(queue, pair{pe.From, x})
				}
			}
		}
	}
	e.scratch.orphans = orphans
	return queue
}

// Pattern returns the engine's pattern.
func (e *Engine) Pattern() *pattern.Pattern { return e.p }

// Stats returns cumulative affected-area statistics.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stats
}

// ResetStats clears the statistics.
func (e *Engine) ResetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = Stats{}
}

// MatchSets exposes the per-node greatest bounded simulation (read-only).
// The returned sets are live: do not use them while writers may run.
func (e *Engine) MatchSets() rel.Relation { return e.match }

// SatSets exposes sat(u), the nodes satisfying each pattern node's predicate
// (read-only). Edge updates never change them.
func (e *Engine) SatSets() rel.Relation { return e.sat }

// ReadGraph runs fn under the read lock on the graph the match is
// maintained over: the owned graph, or the shared base seen through the
// engine's overlay. No write runs meanwhile, so MatchSets is stable too; fn
// must not call the engine's locking methods.
func (e *Engine) ReadGraph(fn func(g graph.View)) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn(e.g)
}

// IsMatch reports whether (u, v) is in the match structure; a node the
// engine has not seen matches nothing.
func (e *Engine) IsMatch(u int, v graph.NodeID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.inTable(u, v) && e.isMatch(u, v)
}

// IsCandidate reports whether v ∈ candt(u); a node the engine has not seen
// is no candidate.
func (e *Engine) IsCandidate(u int, v graph.NodeID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.inTable(u, v) && e.isCandidate(u, v)
}

// inTable reports whether the membership table has a bit for (u, v). Only
// the exported readers need to ask: every node the build and repair paths
// visit comes out of the graph the table is sized for.
func (e *Engine) inTable(u int, v graph.NodeID) bool {
	return u >= 0 && u < len(e.match) && v >= 0 && v < len(e.member)/e.stride
}

// Result returns Mksim(P, G) under the totality convention.
//
// The returned relation is a shared immutable snapshot: callers must not
// mutate it. The snapshot is cached until the next write invalidates it,
// so repeated reads between updates are allocation-free and the fast path
// takes no lock at all.
func (e *Engine) Result() rel.Relation {
	if p := e.snap.Load(); p != nil {
		return *p
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if p := e.snap.Load(); p != nil {
		return *p
	}
	r := e.result()
	e.snap.Store(&r)
	return r
}

func (e *Engine) result() rel.Relation {
	for _, s := range e.match {
		if s.Len() == 0 {
			return rel.NewRelation(len(e.match))
		}
	}
	return e.match.Clone()
}

// ResultGraph builds the result graph Gr of the current match. It uses a
// private BFS oracle so concurrent readers never share scratch space.
func (e *Engine) ResultGraph() *resultgraph.Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.km == 1 {
		// Within bound 1 means adjacent: no distances to ask for.
		return resultgraph.FromSimulation(e.p, e.g, e.result())
	}
	return resultgraph.FromBounded(e.p, e.g, e.result(), distance.NewBFS(e.g))
}

// CheckInvariants holds every matched pair to a live witness per out-edge — a
// match of the edge's target, within its bound by a walk, and no entry left
// behind by a removed pair — and the membership table to the sets it mirrors
// (test hook; not safe beside a writer).
func (e *Engine) CheckInvariants() error {
	for v := 0; v < e.g.NumNodes(); v++ {
		for u := range e.match {
			if got, want := e.isMatch(u, v), e.match[u].Has(v); got != want {
				return fmt.Errorf("match bit (%d,%d) = %v, set has it: %v", u, v, got, want)
			}
			if got, want := e.has(satPlane, u, v), e.sat[u].Has(v); got != want {
				return fmt.Errorf("sat bit (%d,%d) = %v, set has it: %v", u, v, got, want)
			}
			if e.isMatch(u, v) && !e.has(satPlane, u, v) {
				return fmt.Errorf("match pair (%d,%d) does not satisfy its predicate", u, v)
			}
			if e.has(tentPlane, u, v) {
				return fmt.Errorf("tentative bit (%d,%d) left set", u, v)
			}
		}
		if e.scratch.at[v] != 0 {
			return fmt.Errorf("scratch.at[%d] = %d between writes", v, e.scratch.at[v])
		}
	}
	for i, pe := range e.edges {
		if got, want := len(e.wit[i]), e.match[pe.From].Len(); got != want {
			return fmt.Errorf("edge %d: %d witnesses for %d matches of its source", i, got, want)
		}
		for v := range e.match[pe.From] {
			wit, ok := e.wit[i][v]
			if !ok || !e.isMatch(pe.To, wit) {
				return fmt.Errorf("match pair (%d,%d): witness %d (set: %v) for edge %d is no match of %d", pe.From, v, wit, ok, i, pe.To)
			}
			reached := false
			e.bfs.DescNonempty(v, pe.Bound, func(w graph.NodeID, d int) bool {
				reached = w == wit
				return !reached
			})
			if !reached {
				return fmt.Errorf("match pair (%d,%d): witness %d for edge %d is out of bound", pe.From, v, wit, i)
			}
		}
	}
	return nil
}
