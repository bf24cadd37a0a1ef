// Package gdn implements a shared sub-pattern evaluation network — a
// RETE-style discrimination network for standing graph patterns. Each
// registered pattern is decomposed (internal/pattern's canonicalization
// layer) into vertex-predicate leaves, single-edge bounded-path nodes, and
// one join tip per distinct canonical pattern; structurally identical
// sub-patterns hash to the same node, so N standing patterns that overlap
// structurally share predicate satisfaction sets, single-edge match state,
// and — for patterns equal up to node renumbering — the whole incremental
// engine. The network maintains every shared node's match state once per
// commit instead of once per pattern, which is where the sublinear
// per-pattern marginal cost comes from.
//
// Node roles:
//
//   - predicate leaves hold sat(pred) = {v : pred holds on v's attributes}.
//     Only edge updates exist (node ids and attributes are append-only
//     elsewhere and immutable here), so these sets are computed once and
//     shared read-only by every engine via incbsim's WithSat.
//   - single-edge nodes run a 2-node (or self-loop) incremental engine for
//     the sub-pattern src --bound--> dst. Their match state doubles as the
//     network's update-relevance filter (see Apply).
//   - join tips run the full incremental engine over the canonically
//     relabeled pattern. Handles remap results and deltas back through each
//     pattern's relabeling permutation, so two renumbered twins share one
//     join but report in their own node numbering.
//
// Lifecycle: Register/Release refcount every node; a node is torn down when
// the last pattern using it goes. Apply repairs the network for one commit.
// The caller must serialize Register, Release and Apply with each other
// (contq's Registry runs all three under its writer lock); Stats and the
// handle read paths are safe concurrently with everything.
package gdn

import (
	"fmt"

	"sync"

	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/incsim"
	"gpm/internal/par"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// Engine kinds the network can back. These mirror contq's sim/bsim kinds;
// iso is intentionally absent (embedding enumeration does not decompose
// into shared per-edge match state).
const (
	KindSim  = "sim"
	KindBSim = "bsim"
)

// Stats is a point-in-time snapshot of the network: its shape and the
// cumulative sharing counters that make the sublinearity measurable.
type Stats struct {
	// PredNodes/EdgeNodes/JoinNodes count the live shared nodes; Patterns
	// counts the live handles. JoinNodes < Patterns means whole-engine
	// sharing is happening.
	PredNodes int `json:"pred_nodes"`
	EdgeNodes int `json:"edge_nodes"`
	JoinNodes int `json:"join_nodes"`
	Patterns  int `json:"patterns"`
	// RegisterReused counts Register calls that found their join tip
	// already in the network and paid no engine construction at all.
	RegisterReused int64 `json:"register_reused"`
	// JoinRepairs and EdgeRepairs count per-commit node repairs actually
	// executed. RepairsSaved counts the per-pattern repairs a one-engine-
	// per-pattern registry would have executed but the network did not:
	// each commit adds (live patterns − join repairs run), covering both
	// patterns that share a repaired join and patterns whose join the
	// relevance filter skipped outright.
	JoinRepairs  int64 `json:"join_repairs"`
	EdgeRepairs  int64 `json:"edge_repairs"`
	RepairsSaved int64 `json:"repairs_saved"`
}

// predNode is a shared vertex-predicate leaf.
type predNode struct {
	key string
	ref int
	sat rel.Set // read-only once built; shared into engines via WithSat
}

// edgeNode is a shared single-edge sub-pattern node.
type edgeNode struct {
	key      string
	ref      int
	bound    int
	selfLoop bool
	src, dst *predNode
	eng      *incbsim.Engine
	// broken marks an edge node whose repair panicked: its match state is
	// unusable for relevance filtering, so it reports every later update
	// as relevant (the sound over-approximation) and is never repaired
	// again.
	broken bool
	// relevant is Apply's per-commit scratch: whether any update in the
	// current batch can change this node's (or any dependent join's) state.
	relevant bool
}

// relevantTo reports whether any update in ups can change the state of
// this edge node or of any join evaluated over it. Must run BEFORE any
// repair of this commit: the deletion filter reads pre-state match sets.
//
// Soundness, for bound-1 nodes: an insert (v,w) can only create matches
// when v satisfies the source predicate and w the target one — the repair
// core's own probe finds no candidate to stake around any other insertion
// (at bound 1 its slack is 0: the tail must itself be a candidate of the
// source role and the head itself satisfy the target role). A
// delete (v,w) can only destroy matches when v currently matches the
// node's source role and w its target role; any join's whole-pattern match
// for the corresponding pattern edge is a subset of this node's 2-node
// match (the single-edge sub-pattern is strictly less constrained), so an
// update failing the filter here cannot touch counter or match state in
// the node itself or in any join over it. Nodes with bound > 1 (or *) are
// distance-sensitive — a remote edge can reroute a bounded path — so every
// update is relevant to them.
func (e *edgeNode) relevantTo(ups []graph.Update) bool {
	if len(ups) == 0 {
		return false
	}
	if e.broken || e.bound != 1 {
		return true
	}
	m := e.eng.MatchSets()
	mSrc, mDst := m[0], m[len(m)-1]
	for _, up := range ups {
		if up.Op == graph.InsertEdge {
			if e.src.sat.Has(up.From) && e.dst.sat.Has(up.To) {
				return true
			}
		} else if mSrc.Has(up.From) && mDst.Has(up.To) {
			return true
		}
	}
	return false
}

// joinNode is the tip evaluating one canonical pattern for one engine kind.
type joinNode struct {
	kind  string
	key   string
	ref   int
	preds []*predNode // distinct predicate leaves (refcounted once each)
	edges []*edgeNode // distinct single-edge nodes (refcounted once each)
	eng   *incbsim.Engine
	// lastDelta is the canonical-space ΔM of the most recent Apply; each
	// handle remaps it into its own pattern's node numbering.
	lastDelta rel.Delta
	// broken marks a join whose repair panicked: its match state is
	// undefined, every handle's Delta() panics (the registry evicts those
	// patterns), and the node is removed from the network map so a fresh
	// registration rebuilds from scratch.
	broken  bool
	removed bool
}

// relevantNow reports whether the current batch can move this join, given
// the relevance pass already ran over the edge nodes. A pattern with no
// edges can never change under edge updates.
func (j *joinNode) relevantNow() bool {
	for _, e := range j.edges {
		if e.relevant {
			return true
		}
	}
	return false
}

// Network is the shared evaluation network over one base graph view.
type Network struct {
	base    graph.View
	workers int

	// mu guards the node maps and counters against concurrent Stats
	// readers. Register, Release and Apply are additionally serialized by
	// the caller; Apply's repair fan-out runs outside mu so stats reads
	// never block behind an engine repair.
	mu    sync.Mutex
	preds map[string]*predNode
	edges map[string]*edgeNode
	joins map[[2]string]*joinNode // keyed by {kind, canonical pattern key}

	patterns     int
	reused       int64
	joinRepairs  int64
	edgeRepairs  int64
	repairsSaved int64
}

// New builds an empty network over base. workers bounds the parallelism of
// each commit's node-repair fan-out (0 = par.DefaultWorkers).
func New(base graph.View, workers int) *Network {
	return &Network{
		base:    base,
		workers: workers,
		preds:   make(map[string]*predNode),
		edges:   make(map[string]*edgeNode),
		joins:   make(map[[2]string]*joinNode),
	}
}

// Handle is one registered pattern's view of its (possibly shared) join
// tip: it remaps canonical-space results and deltas back into the
// pattern's own node numbering.
type Handle struct {
	net      *Network
	join     *joinNode
	perm     []pattern.NodeID // original node id -> canonical node id
	inv      []pattern.NodeID // canonical node id -> original node id
	identity bool
	released bool
}

// Register installs a standing pattern of the given kind (KindSim or
// KindBSim) and returns its handle. Patterns whose canonical form is
// already in the network share its join tip — no engine is built at all;
// otherwise the join's engine computes its initial match over the current
// base state, reusing every predicate leaf and single-edge node the
// network already maintains. Errors are NewEngine's rejections (an unknown
// kind, a non-normal pattern for sim, colored patterns,...).
func (n *Network) Register(kind string, p *pattern.Pattern) (*Handle, error) {
	d := pattern.Decompose(p)
	n.mu.Lock()
	defer n.mu.Unlock()
	jk := [2]string{kind, d.Key}
	j, ok := n.joins[jk]
	if ok {
		n.reused++
	} else {
		var err error
		j, err = n.buildJoin(kind, d)
		if err != nil {
			return nil, err
		}
		n.joins[jk] = j
	}
	j.ref++
	n.patterns++
	h := &Handle{net: n, join: j, perm: d.Perm, identity: d.Identity()}
	h.inv = make([]pattern.NodeID, len(d.Perm))
	for u, c := range d.Perm {
		h.inv[c] = u
	}
	return h, nil
}

// buildJoin constructs a join tip and acquires (or creates) the predicate
// leaves and single-edge nodes under it. Called with n.mu held.
func (n *Network) buildJoin(kind string, d *pattern.Decomposition) (*joinNode, error) {
	j := &joinNode{kind: kind, key: d.Key}
	// Predicate leaves first: their sat sets seed every engine below.
	predByKey := make(map[string]*predNode, len(d.Preds))
	for _, pd := range d.Preds {
		pn, ok := n.preds[pd.Key]
		if !ok {
			pn = &predNode{key: pd.Key, sat: rel.NewSet()}
			for v := 0; v < n.base.NumNodes(); v++ {
				if pd.Pred.Eval(n.base.Attrs(v)) {
					pn.sat.Add(v)
				}
			}
			n.preds[pd.Key] = pn
		}
		pn.ref++
		predByKey[pd.Key] = pn
		j.preds = append(j.preds, pn)
	}
	rollback := func() {
		for _, pn := range j.preds {
			if pn.ref--; pn.ref == 0 {
				delete(n.preds, pn.key)
			}
		}
		for _, e := range j.edges {
			if e.ref--; e.ref == 0 {
				delete(n.edges, e.key)
			}
		}
	}

	// The join engine next: it is also the kind-fit validator (a pattern it
	// rejects must not leave partially acquired nodes behind). Its sat sets
	// are the shared predicate leaves, one reference per canonical node.
	sat := make(rel.Relation, d.Canon.NumNodes())
	for _, pd := range d.Preds {
		for _, c := range pd.Nodes {
			sat[c] = predByKey[pd.Key].sat
		}
	}
	eng, err := NewEngine(kind, d.Canon, n.base, incbsim.WithWorkers(n.workers), incbsim.WithSat(sat))
	if err != nil {
		rollback()
		return nil, err
	}
	j.eng = eng

	// Single-edge nodes last: the join engine accepted the pattern, so each
	// (uncolored, bound-checked) single-edge sub-pattern is acceptable too.
	for _, ed := range d.Edges {
		e, ok := n.edges[ed.Key]
		if !ok {
			var err error
			e, err = n.buildEdgeNode(ed, predByKey)
			if err != nil {
				rollback()
				return nil, err
			}
			n.edges[ed.Key] = e
		}
		e.ref++
		j.edges = append(j.edges, e)
	}
	return j, nil
}

// buildEdgeNode constructs the 2-node (or self-loop) sub-pattern engine
// for one single-edge node, whatever its bound. The node is shared across
// both join kinds: on a single edge with bound 1, bounded simulation and
// plain simulation coincide.
func (n *Network) buildEdgeNode(ed pattern.EdgeNode, predByKey map[string]*predNode) (*edgeNode, error) {
	src := predByKey[ed.SrcPred]
	dst := predByKey[ed.DstPred]
	sub := pattern.New()
	var sat rel.Relation
	if ed.SelfLoop {
		sub.AddNode(src.pred())
		if err := sub.AddColoredEdge(0, 0, ed.Bound, ed.Color); err != nil {
			return nil, fmt.Errorf("gdn: edge node %q: %w", ed.Key, err)
		}
		sat = rel.Relation{src.sat}
	} else {
		sub.AddNode(src.pred())
		sub.AddNode(dst.pred())
		if err := sub.AddColoredEdge(0, 1, ed.Bound, ed.Color); err != nil {
			return nil, fmt.Errorf("gdn: edge node %q: %w", ed.Key, err)
		}
		sat = rel.Relation{src.sat, dst.sat}
	}
	eng, err := NewEngine(KindBSim, sub, n.base, incbsim.WithWorkers(n.workers), incbsim.WithSat(sat))
	if err != nil {
		return nil, fmt.Errorf("gdn: edge node %q: %w", ed.Key, err)
	}
	return &edgeNode{key: ed.Key, bound: ed.Bound, selfLoop: ed.SelfLoop, src: src, dst: dst, eng: eng}, nil
}

// pred re-parses the leaf's canonical predicate text. The parser
// round-trips predicates byte-identically (the decomposition fuzzing
// enforces it), so the parsed predicate is semantically the one every
// pattern carrying this key declared.
func (p *predNode) pred() pattern.Predicate {
	pred, err := pattern.ParsePredicate(p.key)
	if err != nil {
		panic("gdn: predicate key does not re-parse: " + p.key)
	}
	return pred
}

// NewEngine builds the engine for a KindSim or KindBSim pattern over base:
// either way the one repair core, reading base through a private overlay
// (incbsim.NewShared's contract); incsim's constructor only adds sim's
// kind-fit check (a normal pattern). The network builds its nodes with it,
// adding WithSat, and contq its FromSeq replay engines.
func NewEngine(kind string, p *pattern.Pattern, base graph.View, opts ...incbsim.Option) (*incbsim.Engine, error) {
	switch kind {
	case KindBSim:
		return incbsim.NewShared(p, base, opts...)
	case KindSim:
		e, err := incsim.NewShared(p, base, opts...)
		if err != nil {
			return nil, err
		}
		return e.Engine, nil
	default:
		return nil, fmt.Errorf("gdn: unknown engine kind %q", kind)
	}
}

// Apply repairs the network for one commit: ups is the commit's effective
// ΔG against the base graph, which the caller mutates only after Apply
// returns (every engine reads base ⊕ ups through its private overlay — the
// NewEngine contract). contq's Registry calls it once per commit, before
// its per-pattern fan-out; after Apply, each handle's Delta() reports its
// pattern's ΔM for this commit.
//
// The repair is relevance-filtered: the edge nodes' pre-commit state
// classifies each update (see relevantTo), edge nodes and join tips with
// no relevant update are skipped wholesale — their state provably cannot
// change — and each skipped join's patterns cost nothing this commit.
//
// Apply must be serialized with Register/Release by the caller. A node
// whose repair panics is contained: the panic is swallowed here, the node
// is marked broken, and for a join tip every dependent handle's next
// Delta() call panics instead — inside contq's per-pattern fan-out, where
// the registry's recover path evicts exactly the affected patterns.
func (n *Network) Apply(ups []graph.Update) {
	// Snapshot the node sets under mu; the repairs run outside it so Stats
	// readers never block behind an engine. Register/Release cannot run
	// concurrently (caller contract), so the snapshot is the node set.
	n.mu.Lock()
	edges := make([]*edgeNode, 0, len(n.edges))
	for _, e := range n.edges {
		edges = append(edges, e)
	}
	joins := make([]*joinNode, 0, len(n.joins))
	for _, j := range n.joins {
		joins = append(joins, j)
	}
	n.mu.Unlock()

	// Pass 1 — relevance, against pre-commit state, before ANY repair.
	repairEdges := edges[:0:0]
	for _, e := range edges {
		e.relevant = e.relevantTo(ups)
		if e.relevant && !e.broken {
			repairEdges = append(repairEdges, e)
		}
	}

	// Pass 2 — repair the relevant single-edge nodes in parallel.
	par.For(len(repairEdges), n.workers, func(_, i int) {
		e := repairEdges[i]
		defer func() {
			if rec := recover(); rec != nil {
				e.broken = true
			}
		}()
		e.eng.Batch(ups)
	})

	// Pass 3 — repair the relevant join tips in parallel; skipped joins
	// publish an empty delta for this commit.
	repairJoins := joins[:0:0]
	skippedPatterns := 0
	for _, j := range joins {
		if j.broken {
			continue
		}
		if j.relevantNow() {
			repairJoins = append(repairJoins, j)
		} else {
			j.lastDelta = rel.Delta{}
			skippedPatterns += j.ref
		}
	}
	par.For(len(repairJoins), n.workers, func(_, i int) {
		j := repairJoins[i]
		defer func() {
			if rec := recover(); rec != nil {
				j.broken = true
			}
		}()
		j.lastDelta = j.eng.BatchDelta(ups)
	})

	n.mu.Lock()
	defer n.mu.Unlock()
	for _, j := range repairJoins {
		if j.broken && !j.removed {
			// Unusable and unrecoverable: evict from the network so the next
			// registration of this shape rebuilds a fresh engine. Handles
			// still hold the node (their Delta() panics; contq evicts them)
			// and release their references through it as usual.
			delete(n.joins, [2]string{j.kind, j.key})
			j.removed = true
		}
	}
	n.edgeRepairs += int64(len(repairEdges))
	n.joinRepairs += int64(len(repairJoins))
	// Repairs a one-engine-per-pattern layout would have run but the
	// network did not: every pattern on a skipped join, plus all-but-one
	// pattern on each repaired (shared) join.
	n.repairsSaved += int64(skippedPatterns)
	for _, j := range repairJoins {
		n.repairsSaved += int64(j.ref - 1)
	}
}

// Base returns the shared graph view every node in the network reads
// through — the caller's canonical graph; the network owns no replica.
func (n *Network) Base() graph.View { return n.base }

// Stats returns the network's current shape and sharing counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		PredNodes:      len(n.preds),
		EdgeNodes:      len(n.edges),
		JoinNodes:      len(n.joins),
		Patterns:       n.patterns,
		RegisterReused: n.reused,
		JoinRepairs:    n.joinRepairs,
		EdgeRepairs:    n.edgeRepairs,
		RepairsSaved:   n.repairsSaved,
	}
}

// Delta returns this pattern's ΔM for the most recent Apply, in the
// pattern's own node numbering. It panics if the pattern's join tip broke
// during that Apply — deliberately inside the caller's per-pattern
// fan-out, whose recovery path owns evicting the pattern.
func (h *Handle) Delta() rel.Delta {
	j := h.join
	if j.broken {
		panic("gdn: join node repair panicked; pattern state is undefined")
	}
	if h.identity {
		return j.lastDelta
	}
	d := rel.Delta{Removed: h.remapPairs(j.lastDelta.Removed), Added: h.remapPairs(j.lastDelta.Added)}
	d.Sort()
	return d
}

// Result returns the pattern's current match relation in its own node
// numbering. The relation shares its sets with the join engine's snapshot:
// treat it as immutable, exactly like the engines' own Result().
func (h *Handle) Result() rel.Relation {
	r := h.join.eng.Result()
	if h.identity {
		return r
	}
	out := make(rel.Relation, len(r))
	for u := range out {
		out[u] = r[h.perm[u]]
	}
	return out
}

func (h *Handle) remapPairs(ps []rel.Pair) []rel.Pair {
	if len(ps) == 0 {
		return nil
	}
	out := make([]rel.Pair, len(ps))
	for i, p := range ps {
		out[i] = rel.Pair{U: h.inv[p.U], V: p.V}
	}
	return out
}

// Release drops the handle's reference; the join tip and every node under
// it are torn down when their last reference goes. Releasing twice is a
// no-op. Must be serialized with Register/Apply by the caller.
func (h *Handle) Release() {
	n := h.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if h.released {
		return
	}
	h.released = true
	n.patterns--
	j := h.join
	if j.ref--; j.ref > 0 {
		return
	}
	if !j.removed {
		delete(n.joins, [2]string{j.kind, j.key})
		j.removed = true
	}
	for _, e := range j.edges {
		if e.ref--; e.ref == 0 {
			delete(n.edges, e.key)
		}
	}
	for _, pn := range j.preds {
		if pn.ref--; pn.ref == 0 {
			delete(n.preds, pn.key)
		}
	}
}
