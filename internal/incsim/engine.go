// Package incsim implements incremental graph simulation (Section 5): the
// unit-update algorithms IncMatch⁻ (edge deletion, Fig. 8) and IncMatch⁺
// (edge insertion, Fig. 9), and the batch algorithm IncMatch with the
// minDelta update reduction (Fig. 10).
//
// By Proposition 6.1 simulation is bounded simulation with every bound 1,
// so the package has no repair code of its own: Engine is a constructor
// over the repair core of package incbsim, which it embeds. What is
// implemented by delegation: match(u) — the per-pattern-node maximum
// simulation sets, kept as the greatest relation per node even when some
// pattern node has no match, the "partial matches" of Example 4.3 —
// candt(u) = sat(u) \ match(u), the supports (one witness child per matched
// pair and pattern edge, where Fig. 8 keeps a count: IncMatch⁻ only asks
// whether a support is left), the deletion cascade, the candidate-closure
// promotion, the ΔM change-set, the cached Result snapshot, the locking, and
// Stats. On a normal pattern every walk of the core has radius 1, that is,
// it reads one adjacency list, and the walk of a match whose edge was
// deleted stops at the first child that still matches. What this package
// adds is what Section 5 has and Section 6 has not: the normal-pattern
// check, BatchResult, and the relevance and rank filters of minDelta
// (batch.go), which only MinDelta runs.
//
// Three things the merge gave up:
//
//   - IncMatch⁺dag (InsertDAG) is gone. On a DAG pattern the core's
//     promotion closure has no SCC to iterate, which is the same work.
//   - Fig. 10's one-sweep cancellation (Example 5.5) is not reproduced. A
//     batch is repaired as a deletion phase, then an insertion phase, so a
//     delete and an insert that swap one support remove the pair and promote
//     it again: BatchResult.Removed and Added count both, while the visible
//     ΔM cancels in the change-set and is empty.
//   - An engine's resident state is O(|V|) words, not O(|match|): the core's
//     membership table (8 bytes per graph node up to 21 pattern nodes) and
//     scratch.at (4 bytes per node). It needs no BFS stamps: see
//     distance.BFS.
package incsim

import (
	"fmt"

	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/pattern"
)

// Stats tallies the affected area AFF touched by incremental maintenance;
// they are the core's tallies. Total — the scalar |AFF| that bench/ sums
// into incsim.aff_per_update — adds all five fields, PairsExamined (the
// nodes the repair's radius-1 walks and witness searches visited) included,
// and ResetStats zeroes those same five.
type Stats = incbsim.Stats

// Engine maintains the maximum simulation of a normal pattern over a
// mutable data graph: the repair core of incbsim on a pattern whose bounds
// are all 1. The engine owns the graph (or, after NewShared, an overlay on
// it): all edge updates must go through the engine's methods. It is safe
// for concurrent use, as the core is: writers are serialized, readers run
// beside each other and block only while a write is in progress.
type Engine struct {
	*incbsim.Engine
	edges []pattern.Edge
}

// Option configures the engine.
type Option = incbsim.Option

// WithWorkers bounds the parallelism of the repair's per-source
// re-measurement: 0 selects the default (par.DefaultWorkers), 1 keeps the
// repair serial.
func WithWorkers(n int) Option { return incbsim.WithWorkers(n) }

// New builds an engine for pattern p over graph g, computing the initial
// maximum simulation with the batch algorithm. The pattern must be normal
// (every bound 1); a non-normal pattern is rejected since incremental
// simulation is defined on normal patterns (use incbsim for b-patterns).
func New(p *pattern.Pattern, g *graph.Graph, options ...Option) (*Engine, error) {
	if err := fits(p); err != nil {
		return nil, err
	}
	return wrap(incbsim.New(p, g, options...))
}

// NewShared builds an engine that reads base through a private update
// overlay instead of owning a graph replica: per-pattern memory is the
// engine's auxiliary structures only (see incbsim.NewShared), not O(|G|).
//
// Contract: every write call (Insert/Delete/Batch/Apply and their *Delta
// forms) repairs the match against base ⊕ updates and then discards the
// overlay, so the caller must commit exactly those effective updates to
// the base before the next write — contq's Registry applies the batch to
// the canonical graph right after the engine fan-out returns.
func NewShared(p *pattern.Pattern, base graph.View, options ...Option) (*Engine, error) {
	if err := fits(p); err != nil {
		return nil, err
	}
	return wrap(incbsim.NewShared(p, base, options...))
}

func fits(p *pattern.Pattern) error {
	if !p.IsNormal() {
		return fmt.Errorf("incsim: pattern is not normal; bounded patterns need incbsim")
	}
	if p.HasColors() {
		return fmt.Errorf("incsim: colored patterns are batch-only (use core.Match)")
	}
	return nil
}

func wrap(core *incbsim.Engine, err error) (*Engine, error) {
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: core, edges: core.Pattern().Edges()}, nil
}
