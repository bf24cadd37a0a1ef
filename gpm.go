// Package gpm is a from-scratch Go implementation of Fan, Wang & Wu,
// "Incremental Graph Pattern Matching" (SIGMOD 2011 / ACM TODS 38(3),
// 2013): graph pattern matching via bounded simulation, and incremental
// matching under edge updates for graph simulation, bounded simulation and
// subgraph isomorphism.
//
// The package is a façade over the internal implementation packages; it
// exposes everything a downstream user needs:
//
//   - Graph (data graphs with attribute tuples and edge updates) and
//     Pattern (b-patterns: predicates on nodes, hop bounds k or * on edges);
//   - Match: the cubic-time maximum bounded-simulation match (Section 3),
//     with pluggable distance oracles (BFS, all-pairs matrix, 2-hop,
//     landmark vectors);
//   - MatchSimulation: classic graph simulation (normal patterns);
//   - EnumerateIsomorphic: VF2-style subgraph isomorphism;
//   - IncSimEngine / IncBSimEngine: the incremental engines of Sections 5
//     and 6, maintaining matches under unit and batch edge updates in time
//     proportional to the affected area (IncBSimEngine measures distances
//     by bounded walks over the affected area, not through a landmark
//     index);
//   - LandmarkIndex: the landmark + distance-vector structure of Section 6
//     with incremental maintenance (InsLM / DelLM / IncLM), a standalone
//     distance oracle for Match.
//
// A minimal session:
//
//	g := gpm.NewGraph()
//	boss := g.AddNode(gpm.NewTuple("label", `"B"`))
//	am := g.AddNode(gpm.NewTuple("label", `"AM"`))
//	g.AddEdge(boss, am)
//
//	p := gpm.NewPattern()
//	b := p.AddNode(gpm.Label("B"))
//	a := p.AddNode(gpm.Label("AM"))
//	p.AddEdge(b, a, 1)
//
//	rel := gpm.Match(p, g)        // maximum bounded-simulation match
//
//	eng, _ := gpm.NewIncBSimEngine(p, g)
//	eng.Insert(am, boss)          // incremental repair, not recomputation
//	rel = eng.Result()
//
// Graphs, patterns and update batches serialize both as the line-oriented
// text formats (ReadGraph/Graph.Write, ParsePattern/Pattern.Write,
// ReadUpdates/WriteUpdates) and as JSON documents (encoding/json
// Marshal/Unmarshal on the same types) — the JSON forms are the v1 wire
// contract of cmd/gpserve. The typed HTTP SDK for that server lives in
// the sibling package gpm/client.
package gpm

import (
	"gpm/internal/contq"
	"gpm/internal/core"
	"gpm/internal/distance"
	"gpm/internal/gdn"
	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/incsim"
	"gpm/internal/iso"
	"gpm/internal/journal"
	"gpm/internal/landmark"
	"gpm/internal/obs"
	"gpm/internal/par"
	"gpm/internal/pattern"
	"gpm/internal/rel"
	"gpm/internal/resultgraph"
	"gpm/internal/simulation"
	"io"
)

// SetWorkers bounds the parallelism of the library's parallel hot paths —
// the distance-matrix and landmark-index builds, Match's candidate-set
// scans and the per-source re-measurement of the incremental simulation
// engines' batch repair (IncSimEngine and IncBSimEngine run one). Passing 0
// restores the default (GOMAXPROCS); 1 makes every hot path serial. The
// setting is process-wide.
func SetWorkers(n int) { par.SetDefaultWorkers(n) }

// Core data types, re-exported for downstream use.
type (
	// Graph is a directed data graph with attributed nodes.
	Graph = graph.Graph
	// Tuple is a node's attribute tuple.
	Tuple = graph.Tuple
	// Value is an attribute value (string, int or float).
	Value = graph.Value
	// NodeID identifies a data-graph node.
	NodeID = graph.NodeID
	// Update is a unit edge insertion or deletion.
	Update = graph.Update
	// Pattern is a b-pattern: predicates on nodes, bounds on edges.
	Pattern = pattern.Pattern
	// Predicate is a conjunction of attribute comparisons.
	Predicate = pattern.Predicate
	// Relation is a match relation S ⊆ Vp × V.
	Relation = rel.Relation
	// Pair is a single (pattern node, data node) match.
	Pair = rel.Pair
	// Delta is a match change-set ΔM: pairs removed from and added to a
	// relation by an update.
	Delta = rel.Delta
	// ResultGraph is the graph representation Gr of a match.
	ResultGraph = resultgraph.Graph
	// IncSimEngine incrementally maintains graph simulation (Section 5).
	IncSimEngine = incsim.Engine
	// IncBSimEngine incrementally maintains bounded simulation (Section 6).
	IncBSimEngine = incbsim.Engine
	// IncIsoEngine incrementally maintains subgraph isomorphism (Section 7).
	IncIsoEngine = iso.Engine
	// LandmarkIndex is the landmark + distance-vector oracle of Section 6.2.
	LandmarkIndex = landmark.Index
	// Embedding is one subgraph-isomorphism match.
	Embedding = iso.Embedding
	// DistanceOracle answers hop-distance queries for Match.
	DistanceOracle = distance.Oracle
	// Registry is the continuous-query registry: standing patterns over
	// one shared, continuously-updated graph, with match-delta
	// subscriptions (see NewRegistry).
	Registry = contq.Registry
	// Subscription is one subscriber's match-delta stream.
	Subscription = contq.Subscription
	// MatchEvent is one commit's ΔM for one standing pattern.
	MatchEvent = contq.Event
	// EngineKind selects the engine backing a registered pattern.
	EngineKind = contq.Kind
	// RegistryStats is a point-in-time registry snapshot: pattern count,
	// commit sequence, shared-graph size and the writer's coalescing
	// counters (see Registry.Stats).
	RegistryStats = contq.Stats
	// TimingStats is the commit-pipeline telemetry rollup carried on
	// RegistryStats.Timings: queue wait, per-stage commit latency
	// (validate/network/repair/journal/publish), coalescing effectiveness
	// and live subscription gauges, each latency as a HistSnapshot.
	TimingStats = contq.TimingStats
	// CommitTiming is one commit's stage-by-stage wall-time breakdown,
	// delivered synchronously to an observer installed with
	// WithCommitObserver — the hook behind gpserve's -slow-commit tracing.
	CommitTiming = contq.CommitTiming
	// HistSnapshot is a point-in-time latency histogram: count, sum, max,
	// estimated p50/p95/p99 quantiles and the cumulative buckets they were
	// read from.
	HistSnapshot = obs.HistSnapshot
	// NetworkStats reports the shared sub-pattern evaluation network
	// behind every registered pattern: how many shared predicate / join
	// nodes back the registered patterns, how many
	// registrations reused an existing engine, and how many per-pattern
	// repairs sharing plus relevance filtering saved
	// (RegistryStats.Network).
	NetworkStats = gdn.Stats
	// GraphView is the read-only face of a data graph that matching
	// engines read through; *Graph satisfies it.
	GraphView = graph.View
	// Journal is the registry's replayable commit log: every commit's net
	// ΔG plus pattern registrations, retained in a memory ring and
	// optionally on disk (see OpenJournal / NewMemoryJournal).
	Journal = journal.Journal
	// JournalStats reports a journal's retention and footprint: appended
	// commits, segments, bytes, oldest and head sequence.
	JournalStats = journal.Stats
	// JournalCommit is one replayed commit: its sequence number and net
	// update batch (see Registry.Replay).
	JournalCommit = journal.Commit
	// JournalOption configures OpenJournal / NewMemoryJournal.
	JournalOption = journal.Option
	// SubscribeOption configures Registry.Subscribe (see FromSeq).
	SubscribeOption = contq.SubscribeOption
	// RegistryOption configures NewRegistry / NewRegistryWithJournal (see
	// WithCommitObserver).
	RegistryOption = contq.Option
)

// The engine kinds a standing pattern can be registered under.
const (
	KindAuto = contq.KindAuto
	KindSim  = contq.KindSim
	KindBSim = contq.KindBSim
	KindIso  = contq.KindIso
)

// CmpOp is a predicate comparison operator.
type CmpOp = pattern.CmpOp

// The predicate comparison operators of the paper: <, <=, =, !=, >, >=.
const (
	OpLT = pattern.OpLT
	OpLE = pattern.OpLE
	OpEQ = pattern.OpEQ
	OpNE = pattern.OpNE
	OpGT = pattern.OpGT
	OpGE = pattern.OpGE
)

// String constructs a string attribute value.
func String(s string) Value { return graph.String(s) }

// Int constructs an integer attribute value.
func Int(i int64) Value { return graph.Int(i) }

// Float constructs a floating-point attribute value.
func Float(f float64) Value { return graph.Float(f) }

// Unbounded is the * edge bound: a pattern edge mapped to a nonempty path
// of any length.
const Unbounded = pattern.Unbounded

// NewGraph returns an empty data graph.
func NewGraph() *Graph { return graph.New() }

// ReadGraph parses a data graph in the text format (Graph.Write's
// inverse). For the JSON wire document, use encoding/json on *Graph.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// ParsePattern parses a pattern in the text format (Pattern.Write's
// inverse). For the JSON wire document, use encoding/json on *Pattern.
func ParsePattern(r io.Reader) (*Pattern, error) { return pattern.Parse(r) }

// ReadUpdates parses an edge-update batch in the text format (one
// "insert|delete from to" per line).
func ReadUpdates(r io.Reader) ([]Update, error) { return graph.ReadUpdates(r) }

// WriteUpdates serializes an edge-update batch in the text format.
func WriteUpdates(w io.Writer, ups []Update) error { return graph.WriteUpdates(w, ups) }

// NewTuple builds an attribute tuple from alternating key/value strings;
// values parse as int, float or (quoted) string.
func NewTuple(kv ...string) Tuple { return graph.NewTuple(kv...) }

// NewPattern returns an empty pattern.
func NewPattern() *Pattern { return pattern.New() }

// Label returns the predicate "label = l".
func Label(l string) Predicate { return pattern.Label(l) }

// Insert is shorthand for an edge-insertion update.
func Insert(u, v NodeID) Update { return graph.Insert(u, v) }

// Delete is shorthand for an edge-deletion update.
func Delete(u, v NodeID) Update { return graph.Delete(u, v) }

// Match computes the maximum bounded-simulation match Mksim(P, G)
// (Theorem 3.1) using on-demand BFS for distances. Use MatchWithOracle to
// supply a precomputed oracle. A colored pattern edge (AddColoredEdge) maps
// only to paths whose data edges all carry that relationship label — the
// typed-relationship extension of the paper's Section 2.2 remark.
func Match(p *Pattern, g *Graph) Relation { return core.MatchBFS(p, g) }

// MatchWithOracle computes Mksim(P, G) over the given distance oracle
// (e.g. NewDistanceMatrix, NewTwoHop or NewLandmarkIndex results). The
// oracle serves plain pattern edges; colored edges are honoured under any
// oracle, by walks over their label's data edges.
func MatchWithOracle(p *Pattern, g *Graph, o DistanceOracle) Relation {
	return core.Match(p, g, core.WithOracle(o))
}

// MatchSimulation computes the maximum graph-simulation match Msim(P, G)
// for a normal pattern (every bound 1). A colored pattern edge is imaged
// only by data edges of its label.
func MatchSimulation(p *Pattern, g *Graph) Relation { return simulation.Maximum(p, g) }

// MatchDualSimulation computes the maximum dual-simulation match for a
// normal pattern: simulation refined with the symmetric parent condition
// (Ma et al. 2011, the Section 2.3 remark).
func MatchDualSimulation(p *Pattern, g *Graph) Relation { return simulation.DualMaximum(p, g) }

// EnumerateIsomorphic returns the subgraph-isomorphism embeddings of a
// normal pattern, up to limit (limit <= 0 for all). A colored pattern edge
// maps only to a data edge labeled with its color.
func EnumerateIsomorphic(p *Pattern, g *Graph, limit int) []Embedding {
	return iso.Enumerate(p, g, limit)
}

// NewIncSimEngine builds the incremental simulation engine (IncMatch⁻,
// IncMatch⁺, IncMatch of Section 5) for a normal pattern. The engine owns
// g: apply updates through its methods.
func NewIncSimEngine(p *Pattern, g *Graph) (*IncSimEngine, error) { return incsim.New(p, g) }

// NewIncBSimEngine builds the incremental bounded-simulation engine
// (IncBMatch of Section 6) for a b-pattern. The engine owns g.
func NewIncBSimEngine(p *Pattern, g *Graph) (*IncBSimEngine, error) { return incbsim.New(p, g) }

// NewRegistry builds a continuous-query registry over g, taking ownership
// of it: register standing patterns with Register, commit edge updates
// with Apply, and receive per-pattern match deltas through Subscribe.
// Every engine reads the ONE canonical graph through a private update
// overlay (per-pattern memory is pattern state plus O(|V|) words of flat
// per-node scratch, not a graph replica),
// and the single writer coalesces concurrently queued Apply batches into
// one commit with edge-level insert/delete cancellation; readers and
// subscribers never block behind it. cmd/gpserve exposes the same
// subsystem over HTTP.
func NewRegistry(g *Graph, options ...RegistryOption) *Registry {
	return contq.New(g, options...)
}

// NewRegistryWithJournal builds a continuous-query registry whose commit
// stream is recorded in j: every commit's net ΔG and every pattern
// (un)registration is appended, so disconnected subscribers resume with
// Subscribe(id, FromSeq(n)), raw ΔG tails replay with Registry.Replay,
// and — for durable journals — a crashed process recovers its full state
// with RecoverRegistry. j must be new or freshly reset; Registry.Close
// flushes and fsyncs it but leaves closing it to the caller.
func NewRegistryWithJournal(g *Graph, j *Journal, options ...RegistryOption) *Registry {
	return contq.New(g, append([]RegistryOption{contq.WithJournal(j)}, options...)...)
}

// WithCommitObserver installs a per-commit timing hook on a registry: fn
// receives every commit's CommitTiming (stage wall times, drain size,
// effective updates) synchronously after publish. Keep fn cheap — it runs
// on the writer goroutine. gpserve's -slow-commit tracing is this hook.
func WithCommitObserver(fn func(CommitTiming)) RegistryOption {
	return contq.WithCommitObserver(fn)
}

// RecoverRegistry rebuilds a registry from a durable journal: the latest
// snapshot's graph and standing patterns are loaded, the record tail is
// folded into them (commits into the graph, registrations into the
// pattern set), each surviving pattern's engine is built once over the
// graph at the head, and the journal stays attached for new commits. The
// recovered registry serves results at the journal's head sequence.
func RecoverRegistry(j *Journal) (*Registry, error) { return contq.Recover(j) }

// OpenJournal opens (or creates) a durable commit journal in dir:
// length-prefixed checksummed records in rotating segment files, periodic
// full-state snapshots for bounded recovery and log compaction, and a
// memory ring for hot replay. A torn tail record left by a crash is
// truncated away on open.
func OpenJournal(dir string, options ...JournalOption) (*Journal, error) {
	return journal.Open(dir, options...)
}

// NewMemoryJournal returns a memory-only journal: subscribers can resume
// within the retained ring (JournalRing), but nothing survives the
// process.
func NewMemoryJournal(options ...JournalOption) *Journal { return journal.New(options...) }

// JournalRing bounds how many recent commits a journal keeps in memory
// for hot replay (default 4096).
func JournalRing(n int) JournalOption { return journal.WithRing(n) }

// JournalSnapshotEvery makes a durable journal checkpoint (and compact)
// every n commits (default 1024; 0 disables automatic snapshots).
func JournalSnapshotEvery(n uint64) JournalOption { return journal.WithSnapshotEvery(n) }

// FromSeq makes Registry.Subscribe resume from commit sequence n: the
// subscription starts with no snapshot and its events begin at n+1, the
// missed deltas backfilled by replaying the journal through a fresh
// engine. Fails if the journal no longer retains the range — fall back to
// a plain Subscribe.
func FromSeq(n uint64) SubscribeOption { return contq.FromSeq(n) }

// NewIncIsoEngine builds the incremental subgraph-isomorphism engine
// (IncIsoMat of Section 7 — unbounded by Theorem 7.1, exponential worst
// case) for a normal pattern. Colored pattern edges are honoured as in
// EnumerateIsomorphic; an inserted edge is unlabeled, so it can only image
// plain ones. Besides the embeddings, the engine keeps their projection to
// pairs: Result, and BatchDelta's ΔM.
func NewIncIsoEngine(p *Pattern, g *Graph) *IncIsoEngine { return iso.NewEngine(p, g) }

// NewLandmarkIndex builds the landmark + distance-vector oracle of
// Section 6.2 over g (a greedy vertex cover plus two BFS runs per
// landmark). The index doubles as a DistanceOracle.
func NewLandmarkIndex(g *Graph) *LandmarkIndex { return landmark.New(g) }

// NewDistanceMatrix builds the all-pairs distance matrix oracle (O(|V|²)
// space).
func NewDistanceMatrix(g *Graph) DistanceOracle { return distance.NewMatrix(g) }

// NewTwoHop builds the 2-hop cover labeling oracle.
func NewTwoHop(g *Graph) DistanceOracle { return distance.NewTwoHop(g) }

// NewWeightedMatrix builds the Floyd–Warshall all-pairs oracle over edge
// weights (the weighted-graph extension remarked after Theorem 3.1);
// pattern bounds are then interpreted over truncated weighted distances.
func NewWeightedMatrix(g *Graph, weight func(u, v NodeID) float64) DistanceOracle {
	return distance.NewWeightedMatrix(g, weight)
}

// SimulationResultGraph builds the result graph Gr of a simulation match.
func SimulationResultGraph(p *Pattern, g *Graph, r Relation) *ResultGraph {
	return resultgraph.FromSimulation(p, g, r)
}

// BoundedResultGraph builds the result graph Gr of a bounded-simulation
// match (edges are projections of pattern edges onto bounded paths).
func BoundedResultGraph(p *Pattern, g *Graph, r Relation) *ResultGraph {
	return resultgraph.FromBounded(p, g, r, nil)
}
