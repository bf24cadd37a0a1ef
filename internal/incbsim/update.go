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
//     as a target; backward from a, collecting every match or candidate v
//     with dS(v) + 1 + dT <= k for one of its pattern edges. Whatever lies
//     farther away provably keeps its counters and gains no target.
//  2. Apply the update, and go on to the next. Probing against the graph as
//     it stands is what makes the probes complete for a whole phase: a pair
//     that is within bound before the phase and not after (or the reverse)
//     flips at one particular update of the phase, and that update's probe
//     sees the path through its edge with everything else of it in place.
//  3. Re-measure. The sources the probes found form the affected set S of
//     the phase, each source in it once however many updates reach it. When
//     the phase is in, a single bounded walk from v recounts cnt[e][v] for
//     all pattern edges leaving the pattern nodes v matches. A deletion
//     phase feeds the counters that fell to drainTouched/cascade. In an
//     insertion phase a candidate is also walked when it enters S, counting
//     the satisfying (not just matching) targets in bound; it seeds the
//     promotion iff the final walk counts more, which is exactly "gained a
//     target it did not have". The early count is the pre-phase one: had an
//     earlier update brought the candidate a target, that update's probe
//     would have put it in S. So seeding is exact, and promote explores the
//     closure a per-update sweep would.
//
// Whatever the batch size, a source is walked once per phase, plus once for
// each pattern node it is a candidate of, and a phase of more than maxProbes
// updates is probed in groups (one multi-source walk from the tails of a
// group, one from its heads, the argument above with "group" for "update"):
// a huge batch degrades to the cost of a recompute, not worse. The walks keep their state in the epoch-stamped
// scratch of distance.BFS and in flat per-phase tables on the engine (no
// per-source maps). Step 3 is the only one farmed out to the worker pool,
// once per phase, and only when S is large enough to pay for the goroutines.
// Unit Insert/Delete are this path with a one-element batch.

import (
	"slices"

	"gpm/internal/distance"
	"gpm/internal/graph"
	"gpm/internal/par"
	"gpm/internal/rel"
)

// How one pattern edge takes part in the re-measurement of a source v.
const (
	skip      uint8 = iota // v has no stake in the edge this phase
	matched                // v ∈ match(src(e)): recount cnt[e][v] over match(tgt(e))
	candidate              // v ∈ candt(src(e)): count sat(tgt(e)) in bound, before and after
	staked                 // candidate whose "before" count is still to be taken (probe only)
)

// fanoutGrain is the number of sources below which the re-measurement runs
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
	visited int64 // nodes its walks reached (Stats.PairsExamined)
}

// touch names a support counter that a repair decremented.
type touch struct {
	ei int
	v  graph.NodeID
}

// scratch is the working state of one phase, kept on the engine so that a
// steady stream of updates reuses it instead of allocating.
type scratch struct {
	phase []graph.Update
	ends  []graph.NodeID // a probe's heads, then its tails
	// Per pattern edge: hops from the nearest head to the nearest node of
	// match(tgt(e)) / sat(tgt(e)), -1 when none lies within km-1 hops.
	nearMatch, nearSat []int
	// Per pattern node u: a matched (candidate) source of u is affected iff
	// it reaches a tail within this many hops; -1 when none can be.
	slackMatch, slackCand []int
	role                  []uint8 // per pattern node, for the source at hand
	srcs                  []source
	// Per graph node: its index in srcs plus one, 0 outside S. All zero
	// again once the probes of a phase are done, and promote then borrows it
	// to number the nodes of its closure.
	at        []int32
	fresh     []int   // sources the probe at hand staked as candidates
	mode      []uint8 // len(srcs) × len(edges)
	pre, post []int32 // len(srcs) × len(edges): targets in bound before / after
	touched   []touch
	seeds     []pair
	queue     []pair  // removal worklist of cascade and of promote's refinement
	closure   []pair  // promote: the candidate closure, in discovery order
	tcnt      []int32 // promote: closure nodes × len(edges), tentative support counters
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
	s.srcs, s.mode, s.pre = s.srcs[:0], s.mode[:0], s.pre[:0]
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

	// Step 3. Sources are independent and a walk only reads engine state, so
	// a large S is spread over the worker pool, each worker writing the rows
	// of its own sources; the outcome is settled serially, in source order.
	if cap(s.post) < len(s.mode) {
		s.post = make([]int32, len(s.mode))
	}
	s.post = s.post[:len(s.mode)]
	workers := e.workers
	if len(s.srcs) < fanoutGrain {
		workers = 1
	}
	walkers := e.workerWalkers(par.Resolve(workers, len(s.srcs)))
	par.For(len(s.srcs), workers, func(worker, i int) {
		e.tally(walkers[worker], i, s.post, 0)
	})

	s.touched, s.seeds = s.touched[:0], s.seeds[:0]
	for i := range s.srcs {
		v := s.srcs[i].v
		e.stats.PairsExamined += s.srcs[i].visited
		for ei, m := range s.mode[i*ne : (i+1)*ne] {
			after := s.post[i*ne+ei]
			switch m {
			case matched:
				before := e.cnt[ei][v]
				if after == before {
					continue
				}
				e.cnt[ei][v] = after
				if after < before {
					e.stats.CounterUpdates += int64(before - after)
					s.touched = append(s.touched, touch{ei, v})
				} else {
					e.stats.CounterUpdates += int64(after - before)
				}
			case candidate:
				// Gained a target it did not have: a promotion seed (promote
				// ignores the repeat when several edges of one node gain).
				if after > s.pre[i*ne+ei] {
					s.seeds = append(s.seeds, pair{e.edges[ei].From, v})
				}
			}
		}
	}
	if insert {
		e.promote(s.seeds)
	} else {
		e.drainTouched(s.touched)
	}
}

// probe adds to S the sources a group of updates affects, on the graph as
// it stands just before the group goes in: those that reach one of the
// group's tails within the slack the targets downstream of the group's
// heads leave them. A source that an earlier probe found keeps its row and
// adds the new stakes to it. A candidate is counted here, the first time it
// gets a stake: had an earlier group of the phase brought it a target, that
// group's probe would have staked it, so the count is still the pre-phase
// one.
func (e *Engine) probe(ups []graph.Update, insert bool) {
	s := &e.scratch
	ne := len(e.edges)

	// Downstream of the heads: how close the nearest target of each pattern
	// edge lies. The walk reports nodes nearest first, so the first hit is
	// the minimum and the walk stops once every edge has both.
	s.ends = s.ends[:0]
	for _, up := range ups {
		s.ends = append(s.ends, up.To)
	}
	open := 2 * ne
	for ei := range e.edges {
		s.nearMatch[ei], s.nearSat[ei] = -1, -1
	}
	e.bfs.MultiSource(s.ends, graph.Forward, e.km-1, func(w graph.NodeID, d int) bool {
		for ei, pe := range e.edges {
			if s.nearSat[ei] < 0 && e.has(satPlane, pe.To, w) {
				s.nearSat[ei] = d
				open--
			}
			if s.nearMatch[ei] < 0 && e.isMatch(pe.To, w) {
				s.nearMatch[ei] = d
				open--
			}
		}
		return open > 0
	})
	maxSlack := -1
	for u := range s.slackMatch {
		s.slackMatch[u], s.slackCand[u] = -1, -1
		for _, ei := range e.outEdges[u] {
			if d := s.nearMatch[ei]; d >= 0 {
				s.slackMatch[u] = max(s.slackMatch[u], e.edges[ei].Bound-1-d)
			}
			// Only an insertion can promote, so only it looks at candidates.
			if d := s.nearSat[ei]; insert && d >= 0 {
				s.slackCand[u] = max(s.slackCand[u], e.edges[ei].Bound-1-d)
			}
		}
		maxSlack = max(maxSlack, s.slackMatch[u], s.slackCand[u])
	}

	// Upstream of the tails: the sources within slack.
	s.ends, s.fresh = s.ends[:0], s.fresh[:0]
	for _, up := range ups {
		s.ends = append(s.ends, up.From)
	}
	e.bfs.MultiSource(s.ends, graph.Reverse, maxSlack, func(v graph.NodeID, d int) bool {
		stake := false
		for u := range s.role {
			switch {
			case d <= s.slackMatch[u] && e.isMatch(u, v):
				s.role[u], stake = matched, true
			case d <= s.slackCand[u] && e.isCandidate(u, v):
				s.role[u], stake = staked, true
			default:
				s.role[u] = skip
			}
		}
		if !stake {
			return true
		}
		i := int(s.at[v]) - 1
		if i < 0 {
			i = len(s.srcs)
			s.at[v] = int32(i + 1)
			s.srcs = append(s.srcs, source{v: v})
			s.mode = extend(s.mode, ne) // all skip
			s.pre = extend(s.pre, ne)
		}
		isFresh := false
		for ei, pe := range e.edges {
			if r := s.role[pe.From]; r != skip && s.mode[i*ne+ei] == skip {
				s.mode[i*ne+ei] = r
				isFresh = isFresh || r == staked
			}
		}
		if isFresh {
			s.fresh = append(s.fresh, i)
		}
		return true
	})
	for _, i := range s.fresh {
		e.tally(e.walkers[0], i, s.pre, staked)
		for ei, m := range s.mode[i*ne : (i+1)*ne] {
			if m == staked {
				s.mode[i*ne+ei] = candidate
			}
		}
	}
}

// walker is the state of one worker's re-measurement walks.
type walker struct {
	bfs *distance.BFS
	// The walk at hand: what it counts, and want, the target bits of all
	// its stakes laid out like the words of a table row that hold the match
	// and sat planes.
	stakes []stake
	want   []uint64
}

// stake is one pattern edge a walk counts targets for.
type stake struct {
	ei    int    // the pattern edge
	bound int    // its bound: targets farther away do not count
	word  int    // where a node's row says whether it is a target: which word,
	mask  uint64 // and which bit
	n     int32  // targets counted so far
}

// tally walks forward from source i on the current graph and counts into
// its row of out, per pattern edge it has a stake in (only those in mode
// only, if nonzero), the targets within the edge's bound: matches of the
// edge's target node for a matched stake, satisfying nodes for a candidate
// one. A visited node that is nobody's target is dismissed with an AND per
// word of the walk's want mask.
func (e *Engine) tally(wk *walker, i int, out []int32, only uint8) {
	ne := len(e.edges)
	src := &e.scratch.srcs[i]
	wk.stakes = wk.stakes[:0]
	wk.want = extend(wk.want[:0], (2*e.np+63)/64)
	radius := 0
	for ei, m := range e.scratch.mode[i*ne : (i+1)*ne] {
		if m == skip || (only != 0 && m != only) {
			continue
		}
		pe := &e.edges[ei]
		radius = max(radius, pe.Bound)
		plane := satPlane
		if m == matched {
			plane = matchPlane
		}
		st := stake{ei: ei, bound: pe.Bound}
		st.word, st.mask = e.bit(plane, pe.To)
		wk.want[st.word] |= st.mask
		wk.stakes = append(wk.stakes, st)
	}
	member, span, stakes, want, visited := e.member, e.stride, wk.stakes, wk.want, int64(0)
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
			if st := &stakes[k]; d <= st.bound && bits[st.word]&st.mask != 0 {
				st.n++
			}
		}
		return true
	})
	src.visited += visited
	for _, st := range stakes {
		out[i*ne+st.ei] = st.n
	}
}

// drainTouched scans the decremented counters and cascades the zeros.
func (e *Engine) drainTouched(touched []touch) {
	queue := e.scratch.queue[:0]
	for _, t := range touched {
		src := e.edges[t.ei].From
		if e.cnt[t.ei][t.v] == 0 && e.isMatch(src, t.v) {
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
	ok := e.batchLocked([]graph.Update{up}, nil) > 0
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
	d, _ := e.BatchNet(ups, nil)
	return d
}

// BatchNet is BatchDelta for a caller that reports on the batch as well as
// applying it: it also returns the write's own share of Stats, and inspect,
// if not nil, is handed the batch's net update list — same-edge cancellation
// done, nothing applied yet — under the write lock, where MatchSets still
// holds the pre-batch match. inspect must not keep the list or call the
// engine's locking methods.
func (e *Engine) BatchNet(ups []graph.Update, inspect func(net []graph.Update)) (rel.Delta, Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	before := e.stats
	e.beginChanges()
	e.batchLocked(ups, inspect)
	return e.endChanges(), e.stats.minus(before)
}

// batchLocked repairs the net effect of ups, one phase per update kind, and
// returns the number of net updates.
func (e *Engine) batchLocked(ups []graph.Update, inspect func(net []graph.Update)) int {
	net := graph.NetUpdates(e.g, ups)
	if inspect != nil {
		inspect(net)
	}
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
	e.ApplyDelta(ups)
}

// ApplyDelta is Apply additionally reporting the visible match delta ΔM of
// the whole batch.
func (e *Engine) ApplyDelta(ups []graph.Update) rel.Delta {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.beginChanges()
	for i := range ups {
		e.batchLocked(ups[i:i+1], nil)
	}
	return e.endChanges()
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

	// What is still tentative is promoted. The tentative bits stay up until
	// the counters are settled: they tell the new matches from the old.
	promoted := s.closure[:0]
	for _, pr := range s.closure {
		s.at[pr.v] = 0
		if e.has(tentPlane, pr.u, pr.v) {
			e.setMatch(pr.u, pr.v)
			e.stats.Promotions++
			e.cs.NoteAdded(pr.u, pr.v)
			promoted = append(promoted, pr)
		}
	}
	for _, pr := range promoted {
		for _, ei := range e.outEdges[pr.u] {
			pe := e.edges[ei]
			c := int32(0)
			e.bfs.DescNonempty(pr.v, pe.Bound, func(w graph.NodeID, d int) bool {
				if e.isMatch(pe.To, w) {
					c++
				}
				return true
			})
			e.cnt[ei][pr.v] = c
			e.stats.CounterUpdates++
		}
		for _, ei := range e.inEdges[pr.u] {
			pe := e.edges[ei]
			e.bfs.AncNonempty(pr.v, pe.Bound, func(w graph.NodeID, d int) bool {
				if e.isMatch(pe.From, w) && !e.has(tentPlane, pe.From, w) {
					e.cnt[ei][w]++
					e.stats.CounterUpdates++
				}
				return true
			})
		}
	}
	for _, pr := range promoted {
		e.clearBit(tentPlane, pr.u, pr.v)
	}
}
