package contq

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/obs/trace"
	"gpm/internal/pattern"
)

// This file is the replica side of follower mode (internal/follow): a
// follower registry is built from a leader snapshot (NewAt over Export's
// output), then kept in lockstep by applying the leader's commit stream at
// the leader's own sequence numbers (ApplyReplicated). Because both sides
// assign identical (seq, ΔG) pairs, everything keyed by sequence — SSE
// Last-Event-ID resume, Replay tails, FromSeq subscriptions — works the
// same against a follower as against the leader.

// ErrReplicaGap reports an ApplyReplicated commit whose sequence does not
// directly follow the registry head: the replica missed (or replayed) a
// commit and must re-sync from the leader's snapshot.
var ErrReplicaGap = errors.New("contq: replicated commit does not follow head")

// NewAt builds a registry over g with the commit sequence already at seq
// and the given standing patterns registered — the shape of a follower
// bootstrapping from a leader snapshot (Export on the leader side). The
// registry takes ownership of g. Each pattern's initial match is computed
// over g, so results are immediately correct at seq; later leader commits
// are applied with ApplyReplicated.
func NewAt(g *graph.Graph, seq uint64, pats []journal.PatternDef, options ...Option) (*Registry, error) {
	r := New(g, options...)
	r.mu.Lock()
	r.seq = seq
	r.mu.Unlock()
	for _, pd := range pats {
		if err := r.RegisterDef(pd); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Export returns a consistent full-state snapshot: an immutable shared
// clone of the canonical graph, the commit sequence it reflects, and the
// registered pattern definitions — what GET /v1/snapshot serves and what
// a follower hands to NewAt. The graph is shared across callers at the
// same head (the resume-clone cache), so a bootstrap storm pays one O(|G|)
// copy; callers must not mutate it.
func (r *Registry) Export() (*graph.Graph, uint64, []journal.PatternDef) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.mu.RLock()
	head := r.seq
	r.mu.RUnlock()
	return r.resumeClone(head), head, r.patternDefs()
}

// PatternDef returns one registered pattern's portable definition — id,
// resolved kind, serialized pattern text and registration sequence — the
// document GET /v1/patterns/{id} serves. ok is false when id is not
// registered.
func (r *Registry) PatternDef(id string) (journal.PatternDef, bool) {
	r.mu.RLock()
	reg, ok := r.pats[id]
	r.mu.RUnlock()
	if !ok {
		return journal.PatternDef{}, false
	}
	return reg.def(), true
}

// RegisterDef registers a pattern from its portable definition (the
// PatternDef wire document) at an explicit registration sequence — how
// NewAt installs a snapshot's patterns and how a follower mirrors a
// leader-side Register it reads off the commit stream. pd.Def becomes
// the registration's text form as given.
func (r *Registry) RegisterDef(pd journal.PatternDef) error {
	p, err := pattern.Parse(bytes.NewReader(pd.Def))
	if err != nil {
		return fmt.Errorf("contq: recovering pattern %q: %w", pd.ID, err)
	}
	if err := r.register(pd.ID, p, pd.Def, Kind(pd.Kind), &pd.RegSeq); err != nil {
		return fmt.Errorf("contq: recovering pattern %q: %w", pd.ID, err)
	}
	return nil
}

// ApplyReplicated applies one leader commit at exactly the given sequence
// number, running the full commit pipeline — shared-network repair, delta
// reads, canonical graph mutation, local journaling, and publishes to
// both pattern and commit subscribers. Unlike Apply, nothing is coalesced
// and no sequence is assigned: the leader already did both, and the
// follower replays its decisions so both sides' streams carry identical
// (seq, ΔG) pairs.
//
// seq must be head+1 (ErrReplicaGap otherwise — re-sync). The updates must
// apply cleanly to the canonical graph; a failure there means the replica
// diverged from the leader and the error says so (re-bootstrap). A nil
// return means the commit stands and is published; a journal append
// failure is returned but the commit still stands in memory, exactly as on
// the leader's write path.
//
// traceparent is the leader commit span's W3C traceparent (from the
// commit-stream frame or journal record). When the replica's tracer
// samples, the replicated commit's span tree parents onto the leader's
// commit span, so a single trace ID links leader ingest, leader commit, and
// the follower's apply — "" (or a tracer that is off) replicates untraced,
// byte-for-byte the same pipeline.
func (r *Registry) ApplyReplicated(seq uint64, ups []graph.Update, traceparent string) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.mu.RLock()
	head := r.seq
	r.mu.RUnlock()
	if seq != head+1 {
		return fmt.Errorf("%w: commit %d against head %d", ErrReplicaGap, seq, head)
	}
	start := time.Now()
	if err := r.validate(ups); err != nil {
		return fmt.Errorf("contq: replica diverged from leader at seq %d: %w", seq, err)
	}
	ct := CommitTiming{Validate: time.Since(start), Batches: 1, Updates: len(ups)}
	r.met.validate.ObserveDuration(ct.Validate)
	var cspan *trace.Span
	if sc, ok := trace.Parse(traceparent); ok {
		cspan = r.tracer.StartSpanAt(sc, "replica.apply", start)
		cspan.SetAttr("updates", len(ups))
	}
	_, jerr, err := r.commitEffectiveLocked(effectiveCommit{
		effective: ups, applies: 1, submitted: len(ups), ct: ct, start: start, span: cspan,
	})
	if err != nil {
		return fmt.Errorf("contq: replica diverged from leader at seq %d: %w", seq, err)
	}
	return jerr
}
