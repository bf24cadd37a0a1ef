package main

import (
	"fmt"
	"math/rand"

	"gpm"
	"gpm/internal/generator"
	"gpm/internal/rel"
)

// sizing holds one workload's frozen input sizes, read from gate.json. They
// were chosen once on a 2-core shared box (see README.md, "Frozen sizes")
// and are constants: nothing here is derived at run time, so two commits
// always measure the same inputs.
type sizing struct {
	N       int `json:"n"`       // generator.Synthetic graph: nodes,
	M       int `json:"m"`       // edges,
	Labels  int `json:"labels"`  // label alphabet
	Batch   int `json:"batch"`   // unit updates per op, half insertions and half deletions
	Writers int `json:"writers"` // closed-loop callers
	// Cooldown is how many later ops must pass before an edge may be
	// touched again. Concurrent callers can commit out of submission order;
	// with no edge touched twice inside the in-flight window, the final
	// graph is the same for every interleaving and the oracle stays exact.
	Cooldown int `json:"cooldown,omitempty"`
	// ChurnEvery makes every k-th op carry one insert+delete pair of the
	// same absent edge, which the commit pipeline must cancel (0 = never).
	ChurnEvery int `json:"churn_every,omitempty"`
	// PacedRate is the open-loop ops/s of the paced phase (0 = no paced phase).
	PacedRate float64 `json:"paced_rate,omitempty"`
	// SnapshotEvery and Tail pin recovery: the journal checkpoints every
	// SnapshotEvery commits and recovery replays exactly Tail commits.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	Tail          int `json:"tail,omitempty"`
	// Setups is how many times a run sets up; setup_s is the median. A
	// cheap setup is repeated more often, because a few milliseconds
	// measured once mean little on a shared machine.
	Setups int `json:"setups"`
}

// patternSpec is one standing pattern of a workload.
type patternSpec struct {
	id   string
	kind gpm.EngineKind
	p    *gpm.Pattern
}

// patternDef is a pattern over node labels, before node numbering.
type patternDef struct {
	labels []string
	edges  [][3]int // from, to, bound
}

// build numbers the definition's nodes by perm (perm[i] is the index node i
// gets; nil keeps the order) and returns the pattern. Renumbered copies are
// the same query to the discrimination network and distinct registrations
// to the registry.
func (d patternDef) build(perm []int) *gpm.Pattern {
	if perm == nil {
		perm = make([]int, len(d.labels))
		for i := range perm {
			perm[i] = i
		}
	}
	inv := make([]int, len(perm))
	for i, j := range perm {
		inv[j] = i
	}
	p := gpm.NewPattern()
	for _, i := range inv {
		p.AddNode(gpm.Label(d.labels[i]))
	}
	for _, e := range d.edges {
		if err := p.AddEdge(perm[e[0]], perm[e[1]], e[2]); err != nil {
			panic(fmt.Sprintf("bench: bad built-in pattern: %v", err)) // a bug in the tables below
		}
	}
	return p
}

// The pattern families. They are fixed, not drawn from the seed: the seed
// varies the graph and the update stream, and a fixed query set keeps the
// work per update comparable from seed to seed.
var (
	simDAG    = patternDef{[]string{"L0", "L1", "L2", "L3"}, [][3]int{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}}}
	simCycle  = patternDef{[]string{"L0", "L1", "L2", "L3"}, [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}}}
	simLasso  = patternDef{[]string{"L1", "L2", "L3", "L4"}, [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 1, 1}}}
	simFork   = patternDef{[]string{"L2", "L3", "L4"}, [][3]int{{0, 1, 1}, {0, 2, 1}}}
	simSquare = patternDef{[]string{"L4", "L0", "L1", "L2"}, [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 1}}}
	isoPath   = patternDef{[]string{"L0", "L1", "L2"}, [][3]int{{0, 1, 1}, {1, 2, 1}}}
)

// bsimTriangle bounds one edge of a triangle by k hops and another by 2.
func bsimTriangle(l0, l1, l2 string, k int) patternDef {
	return patternDef{[]string{l0, l1, l2}, [][3]int{{0, 1, k}, {1, 2, 2}, {0, 2, 1}}}
}

// enginePatterns is the six-engine set of engine-unit and engine-batch:
// three simulation patterns (one DAG, two cyclic), two bounded-simulation
// patterns (k = 2 and 3) and one isomorphism pattern.
func enginePatterns() []patternSpec {
	return []patternSpec{
		{"sim-dag", gpm.KindSim, simDAG.build(nil)},
		{"sim-cycle", gpm.KindSim, simCycle.build(nil)},
		{"sim-lasso", gpm.KindSim, simLasso.build(nil)},
		{"bsim-k2", gpm.KindBSim, bsimTriangle("L0", "L1", "L2", 2).build(nil)},
		{"bsim-k3", gpm.KindBSim, bsimTriangle("L1", "L2", "L3", 3).build(nil)},
		{"iso-path", gpm.KindIso, isoPath.build(nil)},
	}
}

// fanoutPatterns is pipeline-fanout's 112 standing patterns: five
// simulation families in 20 renumberings each and two bounded-simulation
// families (k = 2) in five each, which the discrimination network collapses
// to seven shared joins, plus two isomorphism patterns with private
// engines. The bounded patterns are kept few and shallow on purpose: one
// k = 3 pattern costs more per commit than the whole rest of the pipeline,
// and this workload exists to weigh the pipeline, not incbsim (the engine
// workloads do that). The renumberings are drawn from a fixed source, so
// the set does not depend on the seed.
func fanoutPatterns(labels int) []patternSpec {
	rng := rand.New(rand.NewSource(1))
	var out []patternSpec
	for f, d := range []patternDef{simDAG, simCycle, simLasso, simFork, simSquare} {
		for r := 0; r < 20; r++ {
			out = append(out, patternSpec{fmt.Sprintf("sim%d-%02d", f, r), gpm.KindSim, d.build(rng.Perm(len(d.labels)))})
		}
	}
	label := func(i int) string { return fmt.Sprintf("L%d", i%labels) }
	for i := 0; i < 10; i++ {
		f := i % 2
		d := bsimTriangle(label(f), label(f+1), label(f+2), 2)
		out = append(out, patternSpec{fmt.Sprintf("bsim%d-%d", f, i/2), gpm.KindBSim, d.build(rng.Perm(3))})
	}
	for i := 0; i < 2; i++ {
		d := patternDef{[]string{label(3 * i), label(3*i + 1), label(3*i + 2)}, isoPath.edges}
		out = append(out, patternSpec{fmt.Sprintf("iso%d", i), gpm.KindIso, d.build(nil)})
	}
	return out
}

// servePatterns is serve-stream's eight cheap simulation patterns: with
// them a commit costs far less than the HTTP round trip that carries it.
func servePatterns(labels int) []patternSpec {
	label := func(i int) string { return fmt.Sprintf("L%d", i%labels) }
	var out []patternSpec
	for i := 0; i < 8; i++ {
		d := patternDef{[]string{label(i), label(i + 1), label(i + 2)}, [][3]int{{0, 1, 1}, {1, 2, 1}}}
		if i%2 == 0 {
			d.edges = append(d.edges, [3]int{2, 0, 1})
		}
		out = append(out, patternSpec{fmt.Sprintf("p%d", i), gpm.KindSim, d.build(nil)})
	}
	return out
}

// oracle computes a pattern's maximum match from scratch with the batch
// algorithm of its kind. The maximum match is unique, so every incremental
// result must equal it. An isomorphism pattern's relation is the union of
// its embeddings' pairs, the view the registry and the server expose.
func oracle(ps patternSpec, g *gpm.Graph) gpm.Relation {
	switch ps.kind {
	case gpm.KindSim:
		return gpm.MatchSimulation(ps.p, g)
	case gpm.KindBSim:
		return gpm.Match(ps.p, g)
	default:
		return embeddingPairs(ps.p.NumNodes(), gpm.EnumerateIsomorphic(ps.p, g, 0))
	}
}

func embeddingPairs(np int, ems []gpm.Embedding) gpm.Relation {
	r := rel.NewRelation(np)
	for _, em := range ems {
		for u, v := range em {
			r[u].Add(v)
		}
	}
	return r
}

// opStream generates a workload's update batches from the seed. It owns two
// graphs: gen is the state after every op generated so far, and model the
// state after every op taken so far, which at a quiesced checkpoint is the
// graph the system under test must hold.
//
// A workload with one caller takes its ops from generator.Updates, the
// repository's own update generator (the paper's protocol). Concurrent
// callers can commit out of submission order, which generator.Updates knows
// nothing of; for them the stream draws edges itself, by the same rule,
// under a cooldown.
type opStream struct {
	size   sizing
	rng    *rand.Rand
	gen    *gpm.Graph
	edges  [][2]int       // cooldown generator: gen's edges, for uniform deletion; may hold stale entries
	last   map[[2]int]int // cooldown generator: edge → index of the op that last touched it
	queue  [][]gpm.Update // generated, not yet taken
	issued [][]gpm.Update // taken, not yet applied to model
	nGen   int            // ops generated
	nTaken int            // ops taken
	model  *gpm.Graph
}

func newOpStream(g *gpm.Graph, size sizing, seed int64) *opStream {
	return &opStream{
		size:  size,
		rng:   rand.New(rand.NewSource(seed)),
		gen:   g.Clone(),
		edges: g.EdgeList(),
		last:  make(map[[2]int]int),
		model: g.Clone(),
	}
}

// free reports whether an edge may be touched by the op being generated.
func (s *opStream) free(e [2]int) bool {
	at, seen := s.last[e]
	return !seen || s.nGen-at > s.size.Cooldown
}

// pickNode draws an endpoint with the degree bias of the paper's update
// protocol: the better-connected of two uniform draws.
func (s *opStream) pickNode() int {
	a, b := s.rng.Intn(s.size.N), s.rng.Intn(s.size.N)
	if s.gen.Degree(a) >= s.gen.Degree(b) {
		return a
	}
	return b
}

func (s *opStream) absentEdge() [2]int {
	for {
		e := [2]int{s.pickNode(), s.pickNode()}
		if e[0] != e[1] && !s.gen.HasEdge(e[0], e[1]) && s.free(e) {
			return e
		}
	}
}

func (s *opStream) presentEdge() [2]int {
	for {
		i := s.rng.Intn(len(s.edges))
		e := s.edges[i]
		if !s.gen.HasEdge(e[0], e[1]) { // deleted since it was listed
			s.edges[i] = s.edges[len(s.edges)-1]
			s.edges = s.edges[:len(s.edges)-1]
			continue
		}
		if s.free(e) {
			return e
		}
	}
}

// chunkUpdates is how many unit updates one generator.Updates call yields.
// A call lists and shuffles all of gen's edges, so it is made per chunk and
// the chunk is cut into ops. (Where an op is larger, a call yields one op.)
const chunkUpdates = 4096

// generateChunk appends ops cut from one generator.Updates call: half
// insertions of absent edges, half deletions of present ones, shuffled
// together. The call never touches an edge twice, so its updates are valid
// in any order and every cut of them is a valid op; |E| wanders by a few
// edges inside a chunk and is back where it was at its end.
func (s *opStream) generateChunk() {
	n := max(1, chunkUpdates/s.size.Batch) * s.size.Batch
	ups := generator.Updates(s.gen, n/2, n-n/2, s.rng.Int63())
	if len(ups) < s.size.Batch {
		panic("bench: generator.Updates found no room for an op") // the frozen sizes leave plenty
	}
	for ; len(ups) >= s.size.Batch; ups = ups[s.size.Batch:] {
		op := ups[:s.size.Batch:s.size.Batch]
		s.gen.ApplyAll(op) //nolint:errcheck // generated against this very state
		s.queue = append(s.queue, op)
		s.nGen++
	}
}

// generate appends to the queue: for one caller a chunk of ops from
// generator.Updates; for several, one op of alternating insertions of
// absent edges and deletions of present ones, so |E| stays put.
func (s *opStream) generate() {
	if s.size.Writers == 1 {
		s.generateChunk()
		return
	}
	ups := make([]gpm.Update, 0, s.size.Batch)
	if s.size.ChurnEvery > 0 && s.nGen%s.size.ChurnEvery == 0 {
		e := s.absentEdge()
		s.last[e] = s.nGen
		ups = append(ups, gpm.Insert(e[0], e[1]), gpm.Delete(e[0], e[1]))
	}
	for len(ups) < s.size.Batch {
		if len(ups)%2 == 0 {
			e := s.absentEdge()
			s.gen.AddEdge(e[0], e[1]) //nolint:errcheck // both endpoints exist
			s.edges = append(s.edges, e)
			s.last[e] = s.nGen
			ups = append(ups, gpm.Insert(e[0], e[1]))
		} else {
			e := s.presentEdge()
			s.gen.RemoveEdge(e[0], e[1])
			s.last[e] = s.nGen
			ups = append(ups, gpm.Delete(e[0], e[1]))
		}
	}
	s.queue = append(s.queue, ups)
	s.nGen++
}

// prefill generates ahead so that a timed slice takes ops without paying
// for their generation.
func (s *opStream) prefill(n int) {
	for len(s.queue) < n {
		s.generate()
	}
}

// take returns the next op and its index. Callers serialize.
func (s *opStream) take() (int, []gpm.Update) {
	if len(s.queue) == 0 {
		s.generate()
	}
	ups := s.queue[0]
	s.queue = s.queue[1:]
	s.issued = append(s.issued, ups)
	s.nTaken++
	return s.nTaken - 1, ups
}

// syncModel applies every op taken since the last call to the model graph,
// in index order, and returns how many unit updates that was.
func (s *opStream) syncModel() int {
	n := 0
	for _, ups := range s.issued {
		s.model.ApplyAll(ups) //nolint:errcheck // generated against this very state
		n += len(ups)
	}
	s.issued = s.issued[:0]
	return n
}

// inputs is everything a run generates from its seed.
type inputs struct {
	graph    *gpm.Graph
	patterns []patternSpec
	stream   *opStream
}

func makeInputs(wl *workload, seed int64) *inputs {
	g := generator.Synthetic(wl.size.N, wl.size.M, generator.DefaultSchema(wl.size.Labels), seed)
	return &inputs{graph: g, patterns: wl.patterns(wl.size), stream: newOpStream(g, wl.size, seed+1)}
}
