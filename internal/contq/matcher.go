package contq

import (
	"fmt"
	"sync"
	"sync/atomic"

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
		return newIsoMatcher(p, base), nil
	default:
		return nil, fmt.Errorf("%w: unknown engine kind %q", ErrBadKind, kind)
	}
}

// coreMatcher replays a normal pattern (incremental graph simulation) or a
// b-pattern (incremental bounded simulation) for FromSeq backfill, on the
// repair core the two share.
type coreMatcher struct{ eng *incbsim.Engine }

func (m coreMatcher) apply(ups []graph.Update) rel.Delta { return m.eng.BatchDelta(ups) }

func (m coreMatcher) result() rel.Relation { return m.eng.Result() }

func (m coreMatcher) release() {}

// isoMatcher backs a normal pattern with incremental subgraph isomorphism.
// The relation view is the union of embeddings projected to (u, v) pairs,
// maintained by reference counting: a pair appears when its first
// embedding does and vanishes with its last. The iso engine has no
// internal synchronization, so the adapter serializes apply with its own
// lock; result reads an always-present atomic snapshot refreshed at the
// end of each changing batch, so readers never block behind a repair (the
// contract the other engines implement internally).
type isoMatcher struct {
	mu   sync.Mutex
	eng  *iso.Engine
	np   int
	ref  map[rel.Pair]int
	snap atomic.Pointer[rel.Relation]
}

func newIsoMatcher(p *pattern.Pattern, base graph.View) *isoMatcher {
	m := &isoMatcher{eng: iso.NewEngineShared(p, base), np: p.NumNodes(), ref: make(map[rel.Pair]int)}
	for _, em := range m.eng.Embeddings() {
		for u, v := range em {
			m.ref[rel.Pair{U: u, V: v}]++
		}
	}
	m.storeSnapshot()
	return m
}

// storeSnapshot publishes the current refcounted relation. Callers must
// hold m.mu (or be the constructor).
func (m *isoMatcher) storeSnapshot() {
	r := rel.NewRelation(m.np)
	for pr := range m.ref {
		r[pr.U].Add(pr.V)
	}
	m.snap.Store(&r)
}

func (m *isoMatcher) apply(ups []graph.Update) rel.Delta {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Record each touched pair's refcount at first touch; comparing against
	// the final count below yields the net delta with intra-batch
	// cancellation (a pair dropped and re-established emits nothing).
	before := make(map[rel.Pair]int)
	touch := func(em iso.Embedding, delta int) {
		for u, v := range em {
			pr := rel.Pair{U: u, V: v}
			if _, seen := before[pr]; !seen {
				before[pr] = m.ref[pr]
			}
			m.ref[pr] += delta
			if m.ref[pr] == 0 {
				delete(m.ref, pr)
			}
		}
	}
	for _, up := range ups {
		if up.Op == graph.InsertEdge {
			_, added := m.eng.InsertDelta(up.From, up.To)
			for _, em := range added {
				touch(em, 1)
			}
		} else {
			_, removed := m.eng.DeleteDelta(up.From, up.To)
			for _, em := range removed {
				touch(em, -1)
			}
		}
	}
	// End of batch: discard the engine's overlay diff (the registry commits
	// the same updates to the canonical graph once all engines return).
	m.eng.Commit()
	var d rel.Delta
	for pr, b := range before {
		now := m.ref[pr]
		switch {
		case b == 0 && now > 0:
			d.Added = append(d.Added, pr)
		case b > 0 && now == 0:
			d.Removed = append(d.Removed, pr)
		}
	}
	if !d.Empty() {
		m.storeSnapshot()
	}
	d.Sort()
	return d
}

func (m *isoMatcher) result() rel.Relation { return *m.snap.Load() }

func (m *isoMatcher) release() {}

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
