package incsim

// IncMatch (Fig. 10): batch updates. The core nets ΔG (same-edge
// insert/delete cancellation) and repairs all deletions together, then all
// insertions together. The rest of minDelta is here: relevance filtering
// against match()/candt() and topological-rank redundancy elimination
// (Lemma 5.1). Both only report — the core's probe finds nothing to repair
// around an update they would drop, so the repair does not need them.

import (
	"gpm/internal/graph"
	"gpm/internal/rel"
)

// BatchResult reports what a batch application did — the minDelta reduction
// statistics of Fig. 20(a) plus the affected-area outcome.
type BatchResult struct {
	Original  int // updates submitted
	Effective int // after same-edge cancellation against the graph state
	Relevant  int // after relevance filtering (MinDelta: and rank filtering)
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
	res := BatchResult{Original: len(ups)}
	// The hot path uses the cancellation + relevance reductions only; the
	// topological-rank filter (Lemma 5.1) costs an O(|G|) pass, which pays
	// off for reporting (MinDelta) but not here.
	d, st := e.BatchNet(ups, func(net []graph.Update) {
		res.Effective = len(net)
		res.Relevant = e.relevant(net, nil)
	})
	res.Removed, res.Added = int(st.Removals), int(st.Promotions)
	return res, d
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

// relevant counts the updates of net that can possibly change the match or
// the auxiliary counters. It reads the live match sets, so the caller must
// hold the core's lock (BatchNet's inspect, ReadGraph).
func (e *Engine) relevant(net []graph.Update, ranks *rankInfo) int {
	n := 0
	for _, up := range net {
		if e.isRelevant(up, ranks) {
			n++
		}
	}
	return n
}

// isRelevant is the filtering of minDelta, lines 1-6 of Fig. 10, plus the
// rank rule of Lemma 5.1 when ranks is not nil.
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
		if ranks != nil {
			if !rankLE(ranks.pat[pe.From], ranks.data[up.From]) ||
				!rankLE(ranks.pat[pe.To], ranks.data[up.To]) {
				continue
			}
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

// MinDelta exposes the update-reduction statistics without applying
// anything: it reports how many of the submitted updates survive
// cancellation and relevance/rank filtering (Fig. 20(a)). The engine and
// graph are left untouched.
func (e *Engine) MinDelta(ups []graph.Update) BatchResult {
	res := BatchResult{Original: len(ups)}
	e.ReadGraph(func(g graph.View) {
		net := graph.NetUpdates(g, ups)
		res.Effective = len(net)
		res.Relevant = e.relevant(net, e.relevanceRanks(g, net))
	})
	return res
}
