// Package gdn implements a shared sub-pattern evaluation network — a
// RETE-style discrimination network for standing graph patterns, and the
// one thing that backs a standing pattern of any kind. Each registered
// pattern is decomposed (internal/pattern's canonicalization layer) into
// vertex-predicate leaves and one join tip per distinct canonical pattern
// and kind; structurally identical sub-patterns hash to the same node, so N
// standing patterns that overlap structurally share predicate satisfaction
// sets and — for patterns equal up to node renumbering — the whole
// incremental engine. The network keeps a node only if something reads it,
// and maintains every shared node's match state once per commit instead of
// once per pattern, which is where the sublinear per-pattern marginal cost
// comes from.
//
// Node roles:
//
//   - predicate leaves hold sat(pred) = {v : pred holds on v's attributes}.
//     Only edge updates exist (node ids and attributes are append-only
//     elsewhere and immutable here), so these sets are computed once and
//     shared read-only by every simulation engine via incbsim's WithSat.
//     An iso join reads none: its VF2 search tests predicates itself.
//   - join tips run the full incremental engine over the canonically
//     relabeled pattern: incbsim's repair core for sim/bsim, IncIsoMat for
//     iso. A simulation join's own sat and match sets are the network's
//     update-relevance filter (see Apply). Handles remap results and deltas
//     back through each pattern's relabeling permutation, so two renumbered
//     twins share one join but report in their own node numbering.
//
// Lifecycle: Register/Release refcount every node; a node is torn down when
// the last pattern using it goes. Apply repairs the network for one commit,
// after which each handle's Delta reports its pattern's ΔM, or false when
// an engine panic broke the pattern's join. The caller must serialize
// Register, Release and Apply (contq's Registry runs all three under its
// writer lock); Stats and the handle read paths are safe concurrently with
// everything.
package gdn

import (
	"fmt"

	"sync"

	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/incsim"
	"gpm/internal/iso"
	"gpm/internal/par"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// Engine kinds the network can back. These mirror contq's kinds.
const (
	KindSim  = "sim"
	KindBSim = "bsim"
	KindIso  = "iso"
)

// Stats is a point-in-time snapshot of the network: its shape and the
// cumulative sharing counters that make the sublinearity measurable.
type Stats struct {
	// PredNodes/JoinNodes count the live shared nodes; Patterns counts the
	// live handles. JoinNodes < Patterns means whole-engine sharing is
	// happening.
	PredNodes int `json:"pred_nodes"`
	JoinNodes int `json:"join_nodes"`
	Patterns  int `json:"patterns"`
	// RegisterReused counts Register calls that found their join tip
	// already in the network and paid no engine construction at all.
	RegisterReused int64 `json:"register_reused"`
	// JoinRepairs counts per-commit join repairs actually executed.
	// RepairsSaved counts the per-pattern repairs a one-engine-per-pattern
	// registry would have executed but the network did not: each commit
	// adds (live patterns − join repairs run), covering both patterns that
	// share a repaired join and patterns whose join the relevance filter
	// skipped outright.
	JoinRepairs  int64 `json:"join_repairs"`
	RepairsSaved int64 `json:"repairs_saved"`
}

// predNode is a shared vertex-predicate leaf.
type predNode struct {
	key string
	ref int
	sat rel.Set // read-only once built; shared into engines via WithSat
}

// engine is a join's incremental engine: the repair core both simulation
// kinds share (*incbsim.Engine) or IncIsoMat (*iso.Engine). Either repairs
// base ⊕ ups through a private overlay and reports the commit's ΔM.
type engine interface {
	BatchDelta(ups []graph.Update) rel.Delta
	Result() rel.Relation
}

// joinNode is the tip evaluating one canonical pattern for one engine kind.
type joinNode struct {
	kind  string
	key   string
	ref   int
	preds []*predNode // distinct predicate leaves (refcounted once each)
	eng   engine
	// pedges are the canonical pattern's edges and unit reports whether
	// the join is a simulation one whose every edge has bound 1: the
	// relevance filter's fixed inputs.
	pedges []pattern.Edge
	unit   bool
	// lastDelta is the canonical-space ΔM of the most recent Apply; each
	// handle remaps it into its own pattern's node numbering.
	lastDelta rel.Delta
	// broken marks a join whose repair panicked: its match state is
	// undefined, its handles' Delta() report false, and the node leaves
	// the network map so a fresh registration rebuilds from scratch.
	broken  bool
	removed bool
}

// relevantTo reports whether any update in ups can change this join's
// state. It reads the join's pre-commit sat and match sets, so it must run
// before this join's repair of the commit.
//
// An iso join is always relevant, as is a join with an edge of bound ≠ 1
// (or *): that one is distance-sensitive — a remote edge can reroute a
// bounded path — so every update is relevant to it.
// When every bound is 1, let M be the current match and sat(u) the nodes
// satisfying u's predicate. If no deleted (v,w) has v ∈ M(u) and
// w ∈ M(u') for a pattern edge (u,u'), every edge M's witnesses use
// survives, so M is still a simulation (and the repair core's witnesses
// stand). If no inserted (v,w) has v ∈ sat(u) and w ∈ sat(u'), a larger
// simulation of the new graph would match some pattern edge onto an
// inserted edge between sat nodes, so none exists and M stays maximum.
// Either way the join's state provably cannot change.
func (j *joinNode) relevantTo(ups []graph.Update) bool {
	if len(ups) == 0 {
		return false
	}
	if !j.unit {
		return true
	}
	eng := j.eng.(*incbsim.Engine)
	sat, m := eng.SatSets(), eng.MatchSets()
	for _, up := range ups {
		sets := m
		if up.Op == graph.InsertEdge {
			sets = sat
		}
		for _, e := range j.pedges {
			if sets[e.From].Has(up.From) && sets[e.To].Has(up.To) {
				return true
			}
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
	joins map[[2]string]*joinNode // keyed by {kind, canonical pattern key}

	patterns     int
	reused       int64
	joinRepairs  int64
	repairsSaved int64
}

// New builds an empty network over base. workers bounds the parallelism of
// each commit's node-repair fan-out (0 = par.DefaultWorkers).
func New(base graph.View, workers int) *Network {
	return &Network{
		base:    base,
		workers: workers,
		preds:   make(map[string]*predNode),
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

// Register installs a standing pattern of the given kind (KindSim, KindBSim
// or KindIso) and returns its handle. Patterns whose canonical form is
// already in the network under the same kind share its join tip — no
// engine is built at all; otherwise the join's engine computes its initial
// match over the current base state, reusing every predicate leaf the
// network already maintains. Errors are newEngine's rejections (an unknown
// kind, a non-normal pattern for sim or iso, a colored one for iso,...).
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

// buildJoin constructs a join tip and, for a simulation kind, acquires (or
// creates) the predicate leaves under it. Called with n.mu held.
func (n *Network) buildJoin(kind string, d *pattern.Decomposition) (*joinNode, error) {
	j := &joinNode{kind: kind, key: d.Key}
	var opts []incbsim.Option
	if kind != KindIso {
		// Predicate leaves first: their sat sets seed the engine below, one
		// reference per canonical node.
		sat := make(rel.Relation, d.Canon.NumNodes())
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
			j.preds = append(j.preds, pn)
			for _, c := range pd.Nodes {
				sat[c] = pn.sat
			}
		}
		opts = []incbsim.Option{incbsim.WithWorkers(n.workers), incbsim.WithSat(sat)}
	}

	// The join engine last: it is also the kind-fit validator (a pattern it
	// rejects must not leave partially acquired nodes behind).
	eng, err := newEngine(kind, d.Canon, n.base, opts...)
	if err != nil {
		for _, pn := range j.preds {
			if pn.ref--; pn.ref == 0 {
				delete(n.preds, pn.key)
			}
		}
		return nil, err
	}
	j.eng = eng
	j.pedges = d.Canon.Edges()
	j.unit = kind != KindIso
	for _, e := range j.pedges {
		j.unit = j.unit && e.Bound == 1
	}
	return j, nil
}

// newEngine builds a join's engine for a pattern of the given kind over
// base, reading base through a private overlay (the NewShared contracts).
// Sim and bsim get the one repair core, incsim's constructor adding only
// sim's kind-fit check (a normal pattern); opts are the network's
// incbsim options. Iso gets IncIsoMat, which needs a normal, uncolored
// pattern and takes no options.
func newEngine(kind string, p *pattern.Pattern, base graph.View, opts ...incbsim.Option) (engine, error) {
	switch kind {
	case KindBSim:
		e, err := incbsim.NewShared(p, base, opts...)
		if err != nil {
			return nil, err
		}
		return e, nil
	case KindSim:
		e, err := incsim.NewShared(p, base, opts...)
		if err != nil {
			return nil, err
		}
		return e.Engine, nil
	case KindIso:
		if !p.IsNormal() {
			return nil, fmt.Errorf("gdn: iso patterns must be normal")
		}
		if p.HasColors() {
			return nil, fmt.Errorf("gdn: iso patterns cannot be colored")
		}
		return iso.NewEngineShared(p, base), nil
	default:
		return nil, fmt.Errorf("gdn: unknown engine kind %q", kind)
	}
}

// Apply repairs the network for one commit: ups is the commit's effective
// ΔG against the base graph, which the caller mutates only after Apply
// returns (every engine reads base ⊕ ups through its private overlay — the
// newEngine contract). contq's Registry calls it once per commit, and its
// FromSeq backfill once per replayed commit on a one-pattern network; after
// Apply, each handle's Delta() reports its pattern's ΔM for this commit, or
// that the pattern broke.
//
// The repair is relevance-filtered: each join's own pre-commit state
// classifies the batch (see joinNode.relevantTo), a join with no relevant
// update is skipped wholesale — its state provably cannot change — and its
// patterns cost nothing this commit.
//
// Apply must be serialized with Register/Release by the caller. A join
// whose repair panics is contained here, the one place an engine panic is
// recovered: the join is marked broken and every dependent handle's
// Delta() reports false, so the caller can evict exactly the affected
// patterns.
func (n *Network) Apply(ups []graph.Update) {
	// Snapshot the join set under mu; the repairs run outside it so Stats
	// readers never block behind an engine. Register/Release cannot run
	// concurrently (caller contract), so the snapshot is the join set.
	n.mu.Lock()
	joins := make([]*joinNode, 0, len(n.joins))
	for _, j := range n.joins {
		joins = append(joins, j)
	}
	n.mu.Unlock()

	// Classify every join against its pre-commit state, then repair the
	// relevant ones in parallel; skipped joins publish an empty delta for
	// this commit.
	repairJoins := joins[:0:0]
	skippedPatterns := 0
	for _, j := range joins {
		if j.broken {
			continue
		}
		if j.relevantTo(ups) {
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
	n.joinRepairs += int64(len(repairJoins))
	// Repairs a one-engine-per-pattern layout would have run but the
	// network did not: every pattern on a skipped join, plus all-but-one
	// pattern on each repaired (shared) join.
	n.repairsSaved += int64(skippedPatterns)
	for _, j := range repairJoins {
		n.repairsSaved += int64(j.ref - 1)
		if j.broken && !j.removed {
			// Unusable and unrecoverable: evict from the network so the next
			// registration of this shape rebuilds a fresh engine. Handles
			// still hold the node (their Delta() reports false; contq evicts
			// them) and release their references through it as usual.
			delete(n.joins, [2]string{j.kind, j.key})
			j.removed = true
		}
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
		JoinNodes:      len(n.joins),
		Patterns:       n.patterns,
		RegisterReused: n.reused,
		JoinRepairs:    n.joinRepairs,
		RepairsSaved:   n.repairsSaved,
	}
}

// Delta returns this pattern's ΔM for the most recent Apply, in the
// pattern's own node numbering, and true. It returns false instead when
// the pattern's join tip broke during an Apply: its match state is then
// undefined, and the caller owns evicting the pattern.
func (h *Handle) Delta() (rel.Delta, bool) {
	j := h.join
	if j.broken {
		return rel.Delta{}, false
	}
	if h.identity {
		return j.lastDelta, true
	}
	d := rel.Delta{Removed: h.remapPairs(j.lastDelta.Removed), Added: h.remapPairs(j.lastDelta.Added)}
	d.Sort()
	return d, true
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
	for _, pn := range j.preds {
		if pn.ref--; pn.ref == 0 {
			delete(n.preds, pn.key)
		}
	}
}
