package contq

import (
	"context"
	"fmt"
	"time"

	"gpm/internal/graph"
	"gpm/internal/journal"
)

// This file is the raw-ΔG tail subscription: the commit-level analogue of
// the per-pattern Subscription. A CommitSub receives every committed net
// update batch — not match deltas — in commit order with consecutive
// sequence numbers, and the pattern set whenever it changes, in the same
// order: the (Q, ΔG) a follower replica applies through its own registry
// (GET /v1/commits/stream serves it over SSE).

// CommitEvent is one committed net update batch ΔG, or the pattern set.
// Updates is shared with the registry's journal — subscribers must not
// mutate it. At is the publish timestamp (zero for backfilled events,
// which are historical by definition). Trace is the W3C traceparent of the
// commit span that produced the batch ("" when unsampled) — the thread a
// follower's ApplyReplicated continues, so one trace spans the topology.
//
// A pattern-set event, published after a registration, unregistration or
// eviction, has Patterns non-nil (empty when no pattern is left): every
// registered pattern's definition as of Seq, the commit it follows. Its
// slice is shared between subscribers.
type CommitEvent struct {
	Seq      uint64
	Updates  []graph.Update
	At       time.Time
	Trace    string
	Patterns []journal.PatternDef
}

// CommitSub is one subscriber's view of the commit stream. Every commit
// with sequence greater than Seq arrives on C exactly once, in order, with
// consecutive sequence numbers — including commits whose batch cancelled
// to nothing (Seq still advances, so a follower tracking the stream stays
// seq-aligned with the leader). Patterns is the pattern set as of Head,
// the registry head at attach; the commits in (Seq, Head] are backfill,
// and every later registration, unregistration or eviction arrives on C
// as a pattern-set event, in order with the commits. Pattern changes
// inside the backfilled range are not replayed: Patterns stands for them.
// Events queue in an unbounded mailbox, so a slow subscriber never blocks
// the writer. C closes after Cancel or when the registry closes.
type CommitSub struct {
	C <-chan CommitEvent
	// Seq is the sequence the subscription starts after: the first commit
	// on C carries Seq+1.
	Seq      uint64
	Head     uint64
	Patterns []journal.PatternDef

	mb *mailbox[CommitEvent]
}

// Cancel detaches the subscription: the registry stops delivering to it,
// queued-but-unread events are discarded, and C closes. Safe to call more
// than once and concurrently with delivery.
func (s *CommitSub) Cancel() { s.mb.cancel() }

// SubscribeCommitsContext opens a raw-ΔG subscription to the commit
// stream. By default it starts at the current head (live tail only); with
// FromSeq(n) the commits in (n, head] are backfilled from the journal
// first, so the subscriber sees one seq-contiguous stream. Fails with
// ErrSeqFuture when n is ahead of the head, ErrNoJournal when backfill is
// requested on a journal-less registry, and an error wrapping
// journal.ErrCompacted when the journal no longer retains the range — the
// subscriber must re-sync from a snapshot (Export) instead. The journal
// backfill — the potentially slow part — stops and the call fails with
// ctx's error as soon as ctx is done.
func (r *Registry) SubscribeCommitsContext(ctx context.Context, options ...SubscribeOption) (*CommitSub, error) {
	var o subscribeOpts
	for _, opt := range options {
		opt(&o)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.writeMu.Lock()
	if r.closed {
		r.writeMu.Unlock()
		return nil, ErrClosed
	}
	head := r.Seq()
	from := head
	if o.hasFrom {
		from = o.fromSeq
	}
	if from > head {
		r.writeMu.Unlock()
		return nil, fmt.Errorf("%w: %d > %d", ErrSeqFuture, from, head)
	}
	if from < head && r.journal == nil {
		r.writeMu.Unlock()
		return nil, ErrNoJournal
	}
	// Attach under writeMu so the mailbox sees every commit > head and
	// every pattern change after the set read here; the backfill below
	// fills (from, head] ahead of it.
	mb := newMailbox(&r.csubs, r.met.csubsActive, r.met.mailboxHW, from != head)
	s := &CommitSub{C: mb.out, Seq: from, Head: head, Patterns: r.patternDefs(), mb: mb}
	r.writeMu.Unlock()
	if from == head {
		return s, nil
	}
	recs, err := r.journalRange(ctx, from, head)
	if err != nil {
		mb.cancel()
		return nil, err
	}
	evs := make([]CommitEvent, 0, len(recs))
	for _, rec := range recs {
		evs = append(evs, CommitEvent{Seq: rec.Seq, Updates: rec.Updates, Trace: rec.Trace})
	}
	mb.prepend(evs)
	mb.start()
	return s, nil
}
