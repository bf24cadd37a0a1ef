package incsim

// IncMatch (Fig. 10): batch updates. The core nets ΔG (same-edge
// insert/delete cancellation) and repairs all deletions together, then all
// insertions together. The rest of minDelta is here: relevance filtering
// against match()/candt() and topological-rank redundancy elimination
// (Lemma 5.1). Both only report — the core's probe finds nothing to repair
// around an update they would drop, so the repair does not need them, and
// Batch does not run them: MinDelta does, for the caller that wants the
// reduction statistics.

import (
	"gpm/internal/graph"
	"gpm/internal/rel"
)

// BatchResult reports what a batch application did: the cancellation half of
// the minDelta reduction plus the affected-area outcome.
type BatchResult struct {
	Original  int // updates submitted
	Effective int // after same-edge cancellation against the graph state
	Removed   int // match pairs removed
	Added     int // match pairs added
}

// Batch applies a mixed list of edge insertions and deletions, repairing
// the match incrementally while processing the updates together.
func (e *Engine) Batch(ups []graph.Update) BatchResult {
	res, _ := e.BatchDelta(ups)
	return res
}

// BatchDelta is Batch additionally reporting the visible match delta ΔM of
// the whole batch (with intra-batch remove/add cancellation).
func (e *Engine) BatchDelta(ups []graph.Update) (BatchResult, rel.Delta) {
	d, st, net := e.BatchNet(ups)
	return BatchResult{Original: len(ups), Effective: net, Removed: int(st.Removals), Added: int(st.Promotions)}, d
}

// rankInfo holds the topological ranks used by the Lemma 5.1 filter:
// pattern-node ranks over P and data-node ranks over G ⊕ ΔG (the full graph
// bounds the candidate-induced GI from above, which keeps the filter
// sound).
type rankInfo struct {
	pat  []int
	data []int
}

// relevanceRanks ranks the post-update graph, simulated on a clone of g
// (cheap relative to a batch run, O(|G| + |ΔG|)).
func (e *Engine) relevanceRanks(g graph.View, net []graph.Update) *rankInfo {
	g2 := graph.CloneView(g)
	for _, up := range net {
		g2.Apply(up) //nolint:errcheck // net updates are in-range
	}
	return &rankInfo{pat: e.Pattern().AsGraph().TopologicalRanks(), data: g2.TopologicalRanks()}
}

// isRelevant is the filtering of minDelta, lines 1-6 of Fig. 10, plus the
// rank rule of Lemma 5.1: whether up can possibly change the match. It reads
// the live match sets, so the caller must hold the core's lock (ReadGraph).
func (e *Engine) isRelevant(up graph.Update, ranks *rankInfo) bool {
	match, sat := e.MatchSets(), e.SatSets()
	for _, pe := range e.edges {
		if up.Op == graph.DeleteEdge {
			// Only ss deletions matter (Prop. 5.1).
			if match[pe.From].Has(up.From) && match[pe.To].Has(up.To) {
				return true
			}
			continue
		}
		// Insertions: endpoints must satisfy the pattern edge's predicates…
		if !sat[pe.From].Has(up.From) || !sat[pe.To].Has(up.To) {
			continue
		}
		// …and by Lemma 5.1 a node whose rank is below the pattern node's
		// can never match it, so such an edge can never contribute.
		if !rankLE(ranks.pat[pe.From], ranks.data[up.From]) ||
			!rankLE(ranks.pat[pe.To], ranks.data[up.To]) {
			continue
		}
		return true
	}
	return false
}

// rankLE compares topological ranks with ∞ handling: r(u) ≤ r(v).
func rankLE(ru, rv int) bool {
	if ru == graph.RankInfinite {
		return rv == graph.RankInfinite
	}
	return rv == graph.RankInfinite || ru <= rv
}

// MinDelta reports the update-reduction statistics of Fig. 20(a) without
// applying anything: how many updates were submitted, how many survive
// same-edge cancellation, and how many of those survive the relevance and
// rank filters. The engine and graph are left untouched.
func (e *Engine) MinDelta(ups []graph.Update) (original, effective, relevant int) {
	e.ReadGraph(func(g graph.View) {
		net := graph.NetUpdates(g, ups)
		ranks := e.relevanceRanks(g, net)
		for _, up := range net {
			if e.isRelevant(up, ranks) {
				relevant++
			}
		}
		effective = len(net)
	})
	return len(ups), effective, relevant
}
