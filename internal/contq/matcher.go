package contq

import (
	"fmt"

	"gpm/internal/gdn"
	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/iso"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// matcher adapts one engine kind to the registry: apply repairs the
// engine's match against base ⊕ ups — reading the shared canonical graph
// through the engine's private update overlay — and reports the visible
// ΔM; result returns the current match as a shared immutable snapshot.
// After apply returns, the engine has discarded its overlay diff, so the
// registry must commit the same updates to the canonical graph before the
// next apply (the shared-storage protocol). apply calls are serialized by
// the registry's writer lock (one in flight per matcher) but run
// concurrently with result on other goroutines, so every matcher must
// support that overlap. release frees any shared evaluation-network state
// behind the matcher (a no-op for private engines) and is called exactly
// once, under the writer lock, when the pattern leaves the registry.
type matcher interface {
	apply(ups []graph.Update) rel.Delta
	result() rel.Relation
	release()
}

// newMatcher builds a private engine over base: a live iso pattern's, or
// FromSeq backfill's throwaway replay engine of any kind. A sim/bsim one
// comes from gdn.NewEngine and repairs serially, because a resume runs
// beside the writer's fan-out. No graph replica is allocated: per-pattern
// memory is the engine's auxiliary state plus an O(|ΔG|-per-batch) overlay.
func newMatcher(kind Kind, p *pattern.Pattern, base graph.View) (matcher, error) {
	switch kind {
	case KindSim, KindBSim:
		eng, err := gdn.NewEngine(string(kind), p, base, incbsim.WithWorkers(1))
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadKind, err)
		}
		return coreMatcher{eng}, nil
	case KindIso:
		if !p.IsNormal() {
			return nil, fmt.Errorf("%w: iso patterns must be normal", ErrBadKind)
		}
		if p.HasColors() {
			return nil, fmt.Errorf("%w: iso patterns cannot be colored", ErrBadKind)
		}
		return coreMatcher{iso.NewEngineShared(p, base)}, nil
	default:
		return nil, fmt.Errorf("%w: unknown engine kind %q", ErrBadKind, kind)
	}
}

// coreMatcher backs a pattern with a private engine, which reports its own
// ΔM and keeps its own result snapshot: an iso.Engine (a live iso pattern,
// or FromSeq backfill of one), or the repair core graph simulation and
// bounded simulation share (FromSeq backfill of a sim/bsim pattern).
type coreMatcher struct {
	eng interface {
		BatchDelta(ups []graph.Update) rel.Delta
		Result() rel.Relation
	}
}

func (m coreMatcher) apply(ups []graph.Update) rel.Delta { return m.eng.BatchDelta(ups) }

func (m coreMatcher) result() rel.Relation { return m.eng.Result() }

func (m coreMatcher) release() {}

// netMatcher backs a sim/bsim pattern with its handle into the shared
// evaluation network (internal/gdn). The registry repairs the network once
// per commit (Registry.commit calls net.Apply before the matcher fan-out),
// so apply just reports the handle's cached per-commit delta, remapped into
// the pattern's own node numbering; ups is ignored — the network already
// consumed the same batch. A handle whose shared join broke panics inside
// apply, which is exactly the per-pattern eviction signal the registry's
// fan-out recovery expects.
type netMatcher struct{ h *gdn.Handle }

func (m netMatcher) apply(ups []graph.Update) rel.Delta { return m.h.Delta() }

func (m netMatcher) result() rel.Relation { return m.h.Result() }

func (m netMatcher) release() { m.h.Release() }
