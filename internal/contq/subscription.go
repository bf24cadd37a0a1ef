package contq

import "gpm/internal/rel"

// Subscription is one subscriber's view of a pattern's match-delta stream.
// Snapshot is the result at subscription time and Seq the commit it
// reflects; every commit after Seq arrives on C exactly once, in commit
// order. Snapshot ⊕ (all deltas received so far) always equals the live
// result as of the last received event.
//
// Events queue in an unbounded mailbox between the registry's writer and
// the consumer, so a slow consumer never blocks a commit (the memory held
// is proportional to its lag). C closes after Cancel or when the pattern
// is unregistered.
type Subscription struct {
	C        <-chan Event
	Snapshot rel.Relation // shared immutable snapshot — Clone before mutating
	Seq      uint64
	Pattern  string

	mb *mailbox[Event]
}

// newSubscription attaches a subscription to reg's delta feed (see
// newMailbox for paused and the locking contract).
func (r *Registry) newSubscription(reg *registration, snapshot rel.Relation, seq uint64, paused bool) *Subscription {
	mb := newMailbox(&reg.subs, r.met.subsActive, r.met.mailboxHW, paused)
	return &Subscription{C: mb.out, Snapshot: snapshot, Seq: seq, Pattern: reg.id, mb: mb}
}

// Cancel detaches the subscription: the registry stops delivering to it,
// queued-but-unread events are discarded, and C closes. Safe to call more
// than once and concurrently with delivery.
func (s *Subscription) Cancel() { s.mb.cancel() }
