package contq

import (
	"sync"

	"gpm/internal/obs"
)

// This file is the delivery half of every subscription, ΔM (Subscription)
// and ΔG (CommitSub) alike: a feed is the set of mailboxes one event stream
// fans out to, and a mailbox is the unbounded ordered queue between the
// registry's writer and one consumer's channel.

// feed fans one stream's events out to its attached mailboxes. The zero
// value is ready to use.
type feed[E any] struct {
	mu   sync.Mutex
	subs map[*mailbox[E]]struct{}
}

func (f *feed[E]) attach(m *mailbox[E]) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.subs == nil {
		f.subs = make(map[*mailbox[E]]struct{})
	}
	f.subs[m] = struct{}{}
}

func (f *feed[E]) detach(m *mailbox[E]) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.subs, m)
}

func (f *feed[E]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// publish queues ev on every attached mailbox. Called inside the writer's
// critical section, so all subscribers observe the commit order.
func (f *feed[E]) publish(ev E) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for m := range f.subs {
		m.push(ev)
	}
}

// closeAll detaches and closes every mailbox (unregister, eviction,
// registry shutdown): the consumers' channels close.
func (f *feed[E]) closeAll() {
	f.mu.Lock()
	subs := f.subs
	f.subs = nil
	f.mu.Unlock()
	for m := range subs {
		m.close()
	}
}

// mailbox queues events between the writer and one consumer, so a slow
// consumer never blocks a commit (the memory held is proportional to its
// lag, reported through the depth gauge's high-water mark). A pump
// goroutine drains the queue to out in order; out closes once the mailbox
// is closed.
type mailbox[E any] struct {
	out    chan E
	done   chan struct{}
	feed   *feed[E]
	active *obs.Gauge // open mailboxes of this stream kind
	depth  *obs.Gauge // deepest queue observed (SetMax)

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []E
	closed  bool
	started bool
}

// newMailbox builds a mailbox attached to f. A paused mailbox collects
// events but does not deliver until start — the window in which a FromSeq
// resume backfills what the consumer missed ahead of the live feed. Call
// under writeMu, so the mailbox sees every commit after the head read
// under the same lock.
func newMailbox[E any](f *feed[E], active, depth *obs.Gauge, paused bool) *mailbox[E] {
	m := &mailbox[E]{out: make(chan E), done: make(chan struct{}), feed: f, active: active, depth: depth}
	m.cond = sync.NewCond(&m.mu)
	active.Add(1)
	f.attach(m)
	if !paused {
		m.start()
	}
	return m
}

// start launches the delivery pump (idempotent; a no-op once closed).
func (m *mailbox[E]) start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		m.started = true
		go m.pump()
	}
}

// prepend queues events ahead of everything already in the mailbox; only
// valid before start (the pump may already have taken the queue's head
// otherwise).
func (m *mailbox[E]) prepend(evs []E) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed && len(evs) > 0 {
		m.queue = append(append(make([]E, 0, len(evs)+len(m.queue)), evs...), m.queue...)
	}
}

// push enqueues one event. Never blocks beyond the mailbox lock.
func (m *mailbox[E]) push(ev E) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.queue = append(m.queue, ev)
		m.depth.SetMax(int64(len(m.queue)))
		m.cond.Signal()
	}
}

// pump drains the mailbox to the consumer channel in order, ending (and
// closing the channel) when the mailbox closes.
func (m *mailbox[E]) pump() {
	defer close(m.out)
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		ev := m.queue[0]
		// Clear the slot: the backing array outlives the pop, and a
		// consumer that keeps up must not pin delivered events' slices.
		var zero E
		m.queue[0] = zero
		m.queue = m.queue[1:]
		m.mu.Unlock()
		select {
		case m.out <- ev:
		case <-m.done:
			return
		}
	}
}

// cancel detaches the mailbox from its feed and closes it. Safe to call
// more than once and concurrently with delivery.
func (m *mailbox[E]) cancel() {
	m.feed.detach(m)
	m.close()
}

// close discards queued-but-unread events and closes the consumer channel
// (directly when the pump never ran). Idempotent.
func (m *mailbox[E]) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.queue = nil
	close(m.done)
	if m.started {
		m.cond.Signal()
	} else {
		m.started = true
		close(m.out)
	}
	m.active.Add(-1)
}
