package incbsim

// Unit and batch updates: one affected-area repair per phase of a batch
// (all net deletions, then all net insertions), not one per update.
//
//  1. Probe. Before an update (a, b) goes into the graph, find the sources
//     it can affect. The within-bound status of a pair (v, w) for a pattern
//     edge of bound k changes only if a path of at most k hops from v to w
//     runs through (a, b): v reaches a, and b reaches w, over edges that are
//     in the graph at that moment. So two bounded walks suffice: forward
//     from b, for dT, the hops to the nearest node each pattern edge counts
//     as a target; backward from a, collecting every source v with
//     dS(v) + 1 + dT <= k for one of its pattern edges. A deletion can only
//     cost a match a witness, so its probe looks for matches upstream and
//     matching targets downstream; an insertion can only bring a candidate
//     a target, so its probe looks for candidates and satisfying targets.
//     Whatever lies farther away provably keeps its witnesses and gains no
//     target.
//  2. Apply the update, and go on to the next. Probing against the graph as
//     it stands is what makes the probes complete for a whole phase: a pair
//     that is within bound before the phase and not after (or the reverse)
//     flips at one particular update of the phase, and that update's probe
//     sees the path through its edge with everything else of it in place.
//  3. Repair. The sources the probes found form the affected set S of the
//     phase, each source in it once however many updates reach it. When a
//     deletion phase is in, a single bounded walk from a match v looks for a
//     witness for every pattern edge leaving the pattern nodes v matches,
//     and stops when each has one: whether the old witness is still in
//     reach is the question, and the first target met answers it. The edges
//     left without one go to drainTouched/cascade. An insertion phase walks
//     nothing before the promotion. It removes no edge and no pair, so every
//     witness stands, and what a match gains nothing reads. Every candidate
//     of S seeds the promotion, once per pattern node it has a stake in, and
//     the promotion's own refinement discards the seeds that gained nothing.
//     That is exact. It is sound for any seeds: promote keeps only candidate
//     pairs that have, per out-edge, a support among the matches and the
//     pairs it keeps, so what it promotes forms a bounded simulation
//     together with the old match and lies in the maximum one. It is
//     complete because S holds every candidate that gained a target it did
//     not have (a pair comes into bound at one update, whose probe sees the
//     path through its edge), which are the seeds a per-update sweep starts
//     from; more seeds only widen the candidate closure promote explores,
//     and the greatest supported subset of a wider closure can only grow. On
//     a pattern whose bounds are all 1 a candidate of S is exactly one that
//     gained a target, so the seeds are the per-update sweep's.
//
// Whatever the batch size, a match is walked at most once, a candidate only
// by the promotion's closure and support walks, and a phase of more than
// maxProbes updates is probed in groups (one multi-source walk from the
// tails of a group, one from its heads, the argument above with "group" for
// "update"): a huge batch degrades to the cost of a recompute, not worse.
// The walks keep their state in the epoch-stamped scratch of distance.BFS
// and in flat per-phase tables on the engine (no per-source maps). A
// deletion phase's witness searches are the only work farmed out to the
// worker pool, once per phase, and only when S is large enough to pay for
// the goroutines. Unit Insert/Delete are this path with a one-element batch.

import (
	"slices"

	"gpm/internal/distance"
	"gpm/internal/graph"
	"gpm/internal/par"
	"gpm/internal/rel"
)

// fanoutGrain is the number of sources below which the witness searches run
// inline: a walk costs a few microseconds and waking a parked worker tens of
// them, so a few dozen walks cannot pay for the fan-out.
const fanoutGrain = 64

// maxProbes caps the number of affected-area probes of a phase. A probe of
// one update pairs its tail with exactly its own head; a probe of several
// pairs every tail with the best-placed head of the group, which can only
// add sources. Up to maxProbes updates a phase is probed exactly, beyond
// that in ever larger groups, so probing never costs more than a fixed
// number of walks over the graph.
const maxProbes = 256

// source is one member of the affected set S.
type source struct {
	v       graph.NodeID
	visited int64 // nodes its witness search reached (Stats.PairsExamined)
}

// touch names an out-edge of a matched pair that a repair found no witness
// for.
type touch struct {
	ei int
	v  graph.NodeID
}

// scratch is the working state of one phase, kept on the engine so that a
// steady stream of updates reuses it instead of allocating.
type scratch struct {
	phase []graph.Update
	ends  []graph.NodeID // a probe's heads, then its tails
	// Per pattern edge: hops from the nearest head to the nearest target, a
	// node of match(tgt(e)) in a deletion phase and of sat(tgt(e)) in an
	// insertion phase; -1 when none lies within km-1 hops.
	near []int
	// Per pattern node u: a source of u (a match in a deletion phase, a
	// candidate in an insertion phase) is affected iff it reaches a tail
	// within this many hops; -1 when none can be.
	slack []int
	srcs  []source
	// Per graph node: its index in srcs plus one, 0 outside S. All zero
	// again once the probes of a phase are done, and promote then borrows it
	// to number the nodes of its closure.
	at      []int32
	in      []bool  // len(srcs) × len(edges): the source has a stake in the edge
	found   []int32 // len(srcs) × len(edges): the witness a deletion phase's search found, -1 for none
	touched []touch
	seeds   []pair
	queue   []pair         // removal worklist of cascade and of promote's refinement
	orphans []graph.NodeID // cascade: the matches whose witness was the pair removed
	closure []pair         // promote: the candidate closure, in discovery order
	tcnt    []int32        // promote: closure nodes × len(edges), tentative support counters
}

// extend appends n zero values to s.
func extend[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// repair runs one phase: ups are net updates of a single kind.
func (e *Engine) repair(ups []graph.Update) {
	if len(ups) == 0 {
		return
	}
	s := &e.scratch
	insert := ups[0].Op == graph.InsertEdge
	ne := len(e.edges)

	// Steps 1 and 2, group by group.
	s.srcs, s.in = s.srcs[:0], s.in[:0]
	e.sizeTables()
	group := (len(ups) + maxProbes - 1) / maxProbes
	for len(ups) > 0 {
		k := min(group, len(ups))
		e.probe(ups[:k], insert)
		for _, up := range ups[:k] {
			e.g.Apply(up) //nolint:errcheck // net updates: endpoints exist
		}
		ups = ups[k:]
	}
	for i := range s.srcs {
		s.at[s.srcs[i].v] = 0
	}

	// Step 3 of an insertion phase: every stake is a promotion seed (promote
	// ignores the repeat when several edges of one node have a stake).
	if insert {
		s.seeds = s.seeds[:0]
		for i := range s.srcs {
			for ei, in := range s.in[i*ne : (i+1)*ne] {
				if in {
					s.seeds = append(s.seeds, pair{e.edges[ei].From, s.srcs[i].v})
				}
			}
		}
		e.promote(s.seeds)
		return
	}

	// Step 3 of a deletion phase. Sources are independent and a search only
	// reads engine state, so a large S is spread over the worker pool, each
	// worker writing the rows of its own sources; the outcome is settled
	// serially, in source order.
	s.found = extend(s.found[:0], len(s.in))
	workers := e.workers
	if len(s.srcs) < fanoutGrain {
		workers = 1
	}
	walkers := e.workerWalkers(par.Resolve(workers, len(s.srcs)))
	par.For(len(s.srcs), workers, func(worker, i int) {
		e.refind(walkers[worker], i)
	})

	s.touched = s.touched[:0]
	for i := range s.srcs {
		v := s.srcs[i].v
		e.stats.PairsExamined += s.srcs[i].visited
		for ei, in := range s.in[i*ne : (i+1)*ne] {
			if !in {
				continue
			}
			if w := graph.NodeID(s.found[i*ne+ei]); w < 0 {
				s.touched = append(s.touched, touch{ei, v})
			} else if e.wit[ei][v] != w {
				e.wit[ei][v] = w
				e.stats.WitnessUpdates++
			}
		}
	}
	e.drainTouched(s.touched)
}

// probe adds to S the sources a group of updates affects, on the graph as
// it stands just before the group goes in: those that reach one of the
// group's tails within the slack the targets downstream of the group's
// heads leave them. Deletions stake matches against matching targets,
// insertions candidates against satisfying ones. A source that an earlier
// probe found keeps its row and adds the new stakes to it.
func (e *Engine) probe(ups []graph.Update, insert bool) {
	s := &e.scratch
	ne := len(e.edges)
	plane := matchPlane
	if insert {
		plane = satPlane
	}

	// Downstream of the heads: how close the nearest target of each pattern
	// edge lies. The walk reports nodes nearest first, so the first hit is
	// the minimum and the walk stops once every edge has one.
	s.ends = s.ends[:0]
	for _, up := range ups {
		s.ends = append(s.ends, up.To)
	}
	open := ne
	for ei := range e.edges {
		s.near[ei] = -1
	}
	e.bfs.MultiSource(s.ends, graph.Forward, e.km-1, func(w graph.NodeID, d int) bool {
		for ei, pe := range e.edges {
			if s.near[ei] < 0 && e.has(plane, pe.To, w) {
				s.near[ei] = d
				open--
			}
		}
		return open > 0
	})
	maxSlack := -1
	for u := range s.slack {
		s.slack[u] = -1
		for _, ei := range e.outEdges[u] {
			if d := s.near[ei]; d >= 0 {
				s.slack[u] = max(s.slack[u], e.edges[ei].Bound-1-d)
			}
		}
		maxSlack = max(maxSlack, s.slack[u])
	}

	// Upstream of the tails: the sources within slack.
	s.ends = s.ends[:0]
	for _, up := range ups {
		s.ends = append(s.ends, up.From)
	}
	e.bfs.MultiSource(s.ends, graph.Reverse, maxSlack, func(v graph.NodeID, d int) bool {
		i := int(s.at[v]) - 1
		for ei, pe := range e.edges {
			u := pe.From
			if d > s.slack[u] || insert && !e.isCandidate(u, v) || !insert && !e.isMatch(u, v) {
				continue
			}
			if i < 0 {
				i = len(s.srcs)
				s.at[v] = int32(i + 1)
				s.srcs = append(s.srcs, source{v: v})
				s.in = extend(s.in, ne)
			}
			s.in[i*ne+ei] = true
		}
		return true
	})
}

// walker is the state of one worker's witness searches.
type walker struct {
	bfs *distance.BFS
	// The search at hand: its open stakes, and want, the target bits of all
	// of them laid out like the words of a table row that hold the match
	// plane.
	stakes []stake
	want   []uint64
}

// stake is one pattern edge a search looks for a witness of.
type stake struct {
	ei    int          // the pattern edge
	bound int          // its bound: targets farther away do not count
	word  int          // where a node's row says whether it is a target: which word,
	mask  uint64       // and which bit
	wit   graph.NodeID // the first target met in bound, -1 while there is none
}

// refind walks forward from deletion source i on the current graph and
// records into its row of scratch.found, for each pattern edge it has a
// stake in, the first match of the edge's target node it meets within the
// edge's bound, or -1. The walk ends when every stake has one. A visited
// node that is nobody's target is dismissed with an AND per word of the
// walk's want mask.
func (e *Engine) refind(wk *walker, i int) {
	ne := len(e.edges)
	src := &e.scratch.srcs[i]
	wk.stakes = wk.stakes[:0]
	wk.want = extend(wk.want[:0], (e.np+63)/64)
	radius := 0
	for ei, in := range e.scratch.in[i*ne : (i+1)*ne] {
		if !in {
			continue
		}
		pe := &e.edges[ei]
		radius = max(radius, pe.Bound)
		st := stake{ei: ei, bound: pe.Bound, wit: -1}
		st.word, st.mask = e.bit(matchPlane, pe.To)
		wk.want[st.word] |= st.mask
		wk.stakes = append(wk.stakes, st)
	}
	member, span, stakes, want, visited := e.member, e.stride, wk.stakes, wk.want, int64(0)
	open := len(stakes)
	wk.bfs.DescNonempty(src.v, radius, func(w graph.NodeID, d int) bool {
		visited++
		bits := member[w*span:][:len(want)]
		hit := uint64(0)
		for j, m := range want {
			hit |= bits[j] & m
		}
		if hit == 0 {
			return true
		}
		for k := range stakes {
			st := &stakes[k]
			if st.wit < 0 && d <= st.bound && bits[st.word]&st.mask != 0 {
				st.wit = w
				open--
			}
		}
		return open > 0
	})
	src.visited += visited
	for _, st := range stakes {
		e.scratch.found[i*ne+st.ei] = int32(st.wit)
	}
}

// drainTouched removes the matched pairs a repair left short of a witness
// (once, however many of a pair's edges are) and cascades.
func (e *Engine) drainTouched(touched []touch) {
	queue := e.scratch.queue[:0]
	for _, t := range touched {
		src := e.edges[t.ei].From
		if e.isMatch(src, t.v) {
			e.clearMatch(src, t.v)
			queue = append(queue, pair{src, t.v})
		}
	}
	e.scratch.queue = e.cascade(queue)
}

// Delete removes edge (v0, v1), incrementally repairing the match
// (IncBMatch⁻). It reports whether the edge existed.
func (e *Engine) Delete(v0, v1 graph.NodeID) bool {
	ok, _ := e.DeleteDelta(v0, v1)
	return ok
}

// DeleteDelta is Delete additionally reporting the visible match delta ΔM
// of the update.
func (e *Engine) DeleteDelta(v0, v1 graph.NodeID) (bool, rel.Delta) {
	return e.unitDelta(graph.Delete(v0, v1))
}

// Insert adds edge (v0, v1), incrementally repairing the match
// (IncBMatch⁺). It reports whether the edge was new.
func (e *Engine) Insert(v0, v1 graph.NodeID) bool {
	ok, _ := e.InsertDelta(v0, v1)
	return ok
}

// InsertDelta is Insert additionally reporting the visible match delta ΔM
// of the update.
func (e *Engine) InsertDelta(v0, v1 graph.NodeID) (bool, rel.Delta) {
	return e.unitDelta(graph.Insert(v0, v1))
}

// unitDelta is a one-element batch; it reports whether up changed the graph.
func (e *Engine) unitDelta(up graph.Update) (bool, rel.Delta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.beginChanges()
	ok := e.batchLocked([]graph.Update{up}) > 0
	return ok, e.endChanges()
}

// Batch applies a mixed update list (IncBMatch): same-edge cancellation,
// then all deletions with a single cascade, then all insertions with a
// single promotion.
func (e *Engine) Batch(ups []graph.Update) {
	e.BatchDelta(ups)
}

// BatchDelta is Batch additionally reporting the visible match delta ΔM of
// the whole batch (with intra-batch remove/add cancellation).
func (e *Engine) BatchDelta(ups []graph.Update) rel.Delta {
	d, _, _ := e.BatchNet(ups)
	return d
}

// BatchNet is BatchDelta for a caller that reports on the batch as well as
// applying it: it also returns the write's own share of Stats and the number
// of updates the batch netted to (same-edge cancellation done).
func (e *Engine) BatchNet(ups []graph.Update) (rel.Delta, Stats, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	before := e.stats
	e.beginChanges()
	net := e.batchLocked(ups)
	return e.endChanges(), e.stats.minus(before), net
}

// batchLocked repairs the net effect of ups, one phase per update kind, and
// returns the number of net updates.
func (e *Engine) batchLocked(ups []graph.Update) int {
	net := graph.NetUpdates(e.g, ups)
	for _, op := range [...]graph.Op{graph.DeleteEdge, graph.InsertEdge} {
		phase := e.scratch.phase[:0]
		for _, up := range net {
			if up.Op == op {
				phase = append(phase, up)
			}
		}
		e.scratch.phase = phase
		e.repair(phase)
	}
	return len(net)
}

// Apply is the naive baseline: unit updates one at a time.
func (e *Engine) Apply(ups []graph.Update) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.beginChanges()
	for i := range ups {
		e.batchLocked(ups[i : i+1])
	}
	e.endChanges()
}

// promote runs the candidate-closure promotion over the pair graph: the
// bounded-simulation analogue of incsim's propCS/propCC followed by a
// greatest-fixpoint refinement. Its working sets are dense and reused: the
// tentative plane of the membership table says which candidate pairs are
// (still) assumed to match, scratch.closure lists them, and the support
// counters of a closure node live in its row of scratch.tcnt, found through
// scratch.at.
func (e *Engine) promote(seeds []pair) {
	s := &e.scratch
	ne := len(e.edges)
	s.closure, s.tcnt = s.closure[:0], s.tcnt[:0]
	push := func(u int, v graph.NodeID) {
		if !e.isCandidate(u, v) || e.has(tentPlane, u, v) {
			return
		}
		e.setBit(tentPlane, u, v)
		s.closure = append(s.closure, pair{u, v})
		if s.at[v] == 0 {
			s.tcnt = extend(s.tcnt, ne)
			s.at[v] = int32(len(s.tcnt) / ne)
		}
	}
	for _, pr := range seeds {
		push(pr.u, pr.v)
	}
	for i := 0; i < len(s.closure); i++ { // the closure grows as it is explored
		pr := s.closure[i]
		e.stats.ClosureSize++
		for _, ei := range e.inEdges[pr.u] {
			pe := e.edges[ei]
			e.bfs.AncNonempty(pr.v, pe.Bound, func(w graph.NodeID, d int) bool {
				e.stats.PairsExamined++
				push(pe.From, w)
				return true
			})
		}
	}
	if len(s.closure) == 0 {
		return
	}
	tcnt := func(ei int, v graph.NodeID) *int32 { return &s.tcnt[(int(s.at[v])-1)*ne+ei] }

	// Count each tentative pair's support among matches and tentative
	// matches, then refine: a pair with an unsupported edge is withdrawn,
	// which may leave its ancestors unsupported in turn.
	for _, pr := range s.closure {
		for _, ei := range e.outEdges[pr.u] {
			pe := e.edges[ei]
			c := tcnt(ei, pr.v)
			e.bfs.DescNonempty(pr.v, pe.Bound, func(w graph.NodeID, d int) bool {
				e.stats.PairsExamined++
				if e.isMatch(pe.To, w) || e.has(tentPlane, pe.To, w) {
					*c++
				}
				return true
			})
		}
	}
	queue := s.queue[:0]
	for _, pr := range s.closure {
		for _, ei := range e.outEdges[pr.u] {
			if *tcnt(ei, pr.v) == 0 && e.has(tentPlane, pr.u, pr.v) {
				e.clearBit(tentPlane, pr.u, pr.v)
				queue = append(queue, pr)
			}
		}
	}
	for len(queue) > 0 {
		rm := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ei := range e.inEdges[rm.u] {
			pe := e.edges[ei]
			e.bfs.AncNonempty(rm.v, pe.Bound, func(w graph.NodeID, d int) bool {
				if !e.has(tentPlane, pe.From, w) {
					return true
				}
				c := tcnt(ei, w)
				*c--
				if *c == 0 {
					e.clearBit(tentPlane, pe.From, w)
					queue = append(queue, pair{pe.From, w})
				}
				return true
			})
		}
	}
	s.queue = queue

	// What is still tentative is promoted, and once every promoted pair is a
	// match each finds a witness per out-edge, among the old matches and the
	// new. No match of before is touched: its witnesses stand.
	promoted := s.closure[:0]
	for _, pr := range s.closure {
		s.at[pr.v] = 0
		if e.has(tentPlane, pr.u, pr.v) {
			e.clearBit(tentPlane, pr.u, pr.v)
			e.setMatch(pr.u, pr.v)
			e.stats.Promotions++
			e.cs.NoteAdded(pr.u, pr.v)
			promoted = append(promoted, pr)
		}
	}
	for _, pr := range promoted {
		for _, ei := range e.outEdges[pr.u] {
			e.wit[ei][pr.v] = e.find(ei, pr.v)
			e.stats.WitnessUpdates++
		}
	}
}
