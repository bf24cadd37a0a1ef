package contq

import (
	"context"
	"fmt"
	"slices"

	"gpm/internal/gdn"
	"gpm/internal/graph"
	"gpm/internal/journal"
)

// This file is the replay side of the journal integration: serving raw ΔG
// tails (Replay), resuming subscriptions from a past sequence number
// (subscribeFrom), and rebuilding a registry from a durable journal after
// a restart (Recover).

// Replay returns the committed net update batches with sequence numbers
// in (fromSeq, head] — everything a consumer that saw commit fromSeq has
// missed. Fails with ErrNoJournal, ErrSeqFuture, or an error wrapping
// journal.ErrCompacted when the range is not retained — including when
// the journal stopped behind the registry head after an append failure:
// a silently truncated tail would let a follower believe it is caught up
// while commits are missing, so that case errors loudly instead. The
// returned Updates slices are shared with the journal — do not mutate.
func (r *Registry) Replay(fromSeq uint64) ([]journal.Commit, error) {
	if r.journal == nil {
		return nil, ErrNoJournal
	}
	// Under writeMu no commit is mid-append: every seq up to head has been
	// through the journal, so one missing below is a real stop (failed
	// append), not a transient.
	r.writeMu.Lock()
	head := r.Seq()
	r.writeMu.Unlock()
	if fromSeq > head {
		return nil, fmt.Errorf("%w: %d > %d", ErrSeqFuture, fromSeq, head)
	}
	return r.commitsThrough(fromSeq, head)
}

// commitsThrough returns the journaled commits after from, which must
// include every sequence number of (from, head], or an error wrapping
// journal.ErrCompacted when the journal does not hold all of those —
// compacted past from, or stopped behind head after a failed append. head
// must have been read under writeMu.
func (r *Registry) commitsThrough(from, head uint64) ([]journal.Commit, error) {
	recs, err := r.journal.Commits(from)
	if err != nil {
		return nil, fmt.Errorf("contq: journal tail from %d: %w", from, err)
	}
	if n := head - from; n > 0 && (uint64(len(recs)) < n || recs[0].Seq != from+1 || recs[n-1].Seq != head) {
		return nil, fmt.Errorf("contq: journal (head %d) does not hold (%d, %d]: %w",
			r.journal.HeadSeq(), from, head, journal.ErrCompacted)
	}
	return recs, nil
}

// journalRange returns exactly the journaled commits with sequence in
// (from, head], or an error wrapping journal.ErrCompacted when the journal
// does not hold all of them (commitsThrough): a silently truncated range
// would let a subscriber believe it is caught up while commits are
// missing. Commits that landed after head are trimmed: the caller's
// paused mailbox already holds them as live events.
func (r *Registry) journalRange(ctx context.Context, from, head uint64) ([]journal.Commit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // before the scan: a cold one reads disk segments
	}
	recs, err := r.commitsThrough(from, head)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return recs[:head-from], nil
}

// subscribeFrom implements Subscribe(id, FromSeq(from)): attach a live
// subscription at the current head, then backfill the deltas for
// (from, head] by replaying the journaled net batches through a fresh
// engine of the pattern's kind — the same *Delta paths live commits use —
// against a reconstruction of the graph as of from.
//
// The reconstruction needs no graph snapshot: journaled batches are net
// effective updates (every one changed the graph), so applying their
// inverses to a clone of the current graph, newest first, rewinds it
// exactly. The backfill runs outside the writer lock; commits that land
// meanwhile queue in the subscription's paused mailbox and are delivered
// after the backfilled events, preserving consecutive sequence order.
func (r *Registry) subscribeFrom(ctx context.Context, id string, from uint64) (*Subscription, error) {
	r.writeMu.Lock()
	if r.closed {
		r.writeMu.Unlock()
		return nil, ErrClosed
	}
	r.mu.RLock()
	reg, ok := r.pats[id]
	head := r.seq
	r.mu.RUnlock()
	if !ok {
		r.writeMu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotRegistered, id)
	}
	if from > head {
		r.writeMu.Unlock()
		return nil, fmt.Errorf("%w: %d > %d", ErrSeqFuture, from, head)
	}
	if from == head {
		// Nothing missed: a live subscription without a snapshot.
		s := r.newSubscription(reg, nil, head, false)
		r.writeMu.Unlock()
		return s, nil
	}
	if r.journal == nil {
		r.writeMu.Unlock()
		return nil, ErrNoJournal
	}
	if from < reg.regSeq {
		r.writeMu.Unlock()
		return nil, fmt.Errorf("%w: seq %d predates pattern %q (registered at seq %d)",
			journal.ErrCompacted, from, id, reg.regSeq)
	}
	// Snapshot the graph at head under the writer lock — a reconnect
	// storm shares one cached clone per head, so the lock is held for one
	// O(|G|) copy at most — and attach the paused subscription atomically
	// with it, so the mailbox sees every commit > head. The journal scan
	// and the private working copy happen after the lock is released: a
	// cold resume that misses the memory ring reads disk segments, and
	// that must not stall every writer behind one reconnecting client.
	shared := r.resumeClone(head)
	s := r.newSubscription(reg, nil, from, true)
	r.writeMu.Unlock()
	base := shared.Clone() // private: backfill rewinds and replays in place

	recs, err := r.journalRange(ctx, from, head)
	if err != nil {
		s.Cancel()
		return nil, err
	}
	events, err := r.backfill(ctx, reg, base, recs)
	if err != nil {
		s.Cancel()
		return nil, err
	}
	s.mb.prepend(events)
	s.mb.start()
	return s, nil
}

// resumeClone returns the shared immutable clone of the canonical graph
// at head, building it on first use. Called under writeMu (the graph is
// stable); the cache is invalidated by every commit.
func (r *Registry) resumeClone(head uint64) *graph.Graph {
	r.resumeMu.Lock()
	defer r.resumeMu.Unlock()
	if r.resumeG == nil || r.resumeSeq != head {
		r.resumeG = r.g.Clone()
		r.resumeSeq = head
	}
	return r.resumeG
}

// backfill rewinds base (the graph at the newest replayed seq) to the
// state before recs[0], then replays the batches forward through a fresh
// network holding just this pattern, collecting one event per commit. It
// stops early with ctx's error when the caller gives up (the replay can
// span thousands of commits; an abandoned resume must not keep burning a
// core).
//
// Unlike Recover, which has no reader for the increments and builds engines
// once at the head, a resume is asked for exactly the intermediate ΔM of
// every commit in the range, so an engine has to repair through them. It
// cannot be the live network's: those joins stand at the head over the
// canonical graph and are read by every live pattern, while this one starts
// from a graph the registry is no longer at and is thrown away when the
// last event is collected. The replay network runs one worker, because a
// resume runs beside the writer's commits.
func (r *Registry) backfill(ctx context.Context, reg *registration, base *graph.Graph, recs []journal.Commit) ([]Event, error) {
	for i := len(recs) - 1; i >= 0; i-- {
		ups := recs[i].Updates
		for k := len(ups) - 1; k >= 0; k-- {
			if _, err := base.Apply(ups[k].Inverse()); err != nil {
				return nil, fmt.Errorf("contq: rewinding to seq %d: %w", recs[0].Seq-1, err)
			}
		}
	}
	net := gdn.New(base, 1)
	h, err := net.Register(string(reg.kind), reg.p)
	if err != nil {
		return nil, fmt.Errorf("contq: rebuilding %q engine for replay: %w", reg.id, err)
	}
	events := make([]Event, 0, len(recs))
	for _, rec := range recs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ev := Event{Pattern: reg.id, Seq: rec.Seq, Trace: rec.Trace}
		if len(rec.Updates) > 0 {
			net.Apply(rec.Updates)
			d, ok := h.Delta()
			if !ok {
				return nil, fmt.Errorf("contq: replaying seq %d: %q engine repair panicked", rec.Seq, reg.id)
			}
			ev.Delta = d
			// The shared-storage protocol: the engine dropped its overlay,
			// so commit the batch to the replay base before the next one.
			if _, err := base.ApplyAll(rec.Updates); err != nil {
				return nil, fmt.Errorf("contq: replaying seq %d: %w", rec.Seq, err)
			}
		}
		events = append(events, ev)
	}
	return events, nil
}

// Recover rebuilds a registry from a durable journal: load the latest
// snapshot (graph + standing patterns at a past seq), fold the record tail
// into it — commits into the graph, registrations and unregistrations into
// the pattern list, in order — and hand the state at the head to NewAt, the
// constructor a follower bootstraps with. No engine exists before the head
// and none repairs during the replay: nobody can have subscribed yet, so no
// one reads the intermediate ΔM, and the maximum match at the head is
// unique however it is reached. The recovered registry serves results at
// the journal's head sequence and accepts new commits from there.
//
// A pattern therefore comes back iff its last journaled record is a
// registration. One whose engine panicked before the crash stays out: the
// eviction was journaled as an unregistration. If that record was lost with
// the crash, the pattern is rebuilt from scratch over the head graph rather
// than driven into the same panic by the same batch.
//
// Do not pass WithJournal in options; the journal argument is attached
// once the registry is built (so recovered records are not re-appended).
func Recover(j *journal.Journal, options ...Option) (*Registry, error) {
	snap, tail := j.RecoveredState()
	g := graph.New()
	var seq uint64
	var pats []journal.PatternDef
	if snap != nil {
		// The snapshot preserves each original registration seq, so resumes
		// reaching back before the snapshot (into journal history the
		// compactor retained) are not wrongly rejected after a restart.
		g, seq, pats = snap.Graph, snap.Seq, snap.Patterns
	}
	drop := func(id string) {
		pats = slices.DeleteFunc(pats, func(pd journal.PatternDef) bool { return pd.ID == id })
	}
	for _, rec := range tail {
		switch rec.Type {
		case journal.RecCommit:
			if _, err := g.ApplyAll(rec.Updates); err != nil {
				return nil, fmt.Errorf("contq: replaying commit %d: %w", rec.Seq, err)
			}
			seq = rec.Seq
		case journal.RecRegister:
			drop(rec.ID)
			pats = append(pats, journal.PatternDef{ID: rec.ID, Kind: rec.Kind, Def: rec.Def, RegSeq: rec.Seq})
		case journal.RecUnregister:
			drop(rec.ID)
		}
	}
	r, err := NewAt(g, seq, pats, options...)
	if err != nil {
		return nil, err
	}
	r.journal = j
	return r, nil
}
