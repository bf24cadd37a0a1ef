// Package contq implements the continuous-query layer that turns the
// incremental engines into a serving system: a Registry owns ONE shared
// canonical data graph and any number of standing patterns, each a handle
// into the shared evaluation network (internal/gdn), whose join for the
// pattern runs the incremental engine matching its kind (incsim for normal
// patterns, incbsim for b-patterns, iso for subgraph isomorphism) reading
// that graph through a read-only graph.View. A single serialized writer
// ingests edge-update batches, coalesces queued batches into one commit,
// repairs the network once for the effective updates, reads each pattern's
// delta from it, applies the updates to the canonical graph exactly once,
// and publishes per-pattern match deltas ΔM — not full results — to
// channel subscribers in commit order, the production shape of incremental
// view maintenance (standing queries registered once, update streams
// fanned out, deltas pushed).
//
// Memory model: engines never clone the graph. Each engine repairs through
// a private graph.Overlay — an O(|ΔG|-per-batch) diff over the shared base
// that absorbs the repair's own mutations and is discarded when the
// registry commits the batch to the canonical graph. Per-pattern memory is
// therefore the engine's match/candidate/counter structures plus its flat
// per-node arrays (O(|V|) words: BFS stamps, incbsim's membership bits),
// not O(|V|+|E|) replicas (the shared-host-graph organisation of
// RETE-style incremental query engines).
//
// Batch coalescing: Apply enqueues the caller's batch and the first
// enqueuer becomes the drainer — every batch queued while a commit is in
// flight is merged into the next commit. Within one drain, updates cancel
// at the edge level (an insert and a delete of the same edge annihilate;
// updates restating the graph's current state vanish), so the engines see
// only the net effective ΔG. Each caller still gets its own completion —
// its commit's sequence number or its own validation error — and
// subscribers see exactly one event per commit with consecutive sequence
// numbers, so snapshot ⊕ deltas still reproduces Result().
//
// Concurrency contract:
//
//   - Commits, Register, Unregister, Subscribe and Close serialize on one
//     writer lock, so every subscriber observes the same totally-ordered
//     commit sequence and a subscription's starting snapshot is atomic
//     with respect to commits.
//   - Readers (Result, Patterns, Info, GraphInfo, Stats) never take the
//     writer lock: they read through the engines' lock-free cached
//     snapshots, so reads between updates are allocation-free and never
//     block behind a writer.
//   - During a commit's network repair the canonical graph is immutable
//     (engines read it concurrently; their overlays are private), and it is
//     mutated only after every engine has returned.
package contq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gpm/internal/gdn"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/obs"
	"gpm/internal/obs/trace"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// Sentinel errors, so callers (e.g. the HTTP layer) can map failure
// classes to distinct responses.
var (
	// ErrClosed reports an operation on a closed registry.
	ErrClosed = errors.New("contq: registry closed")
	// ErrAlreadyRegistered reports a duplicate pattern id.
	ErrAlreadyRegistered = errors.New("contq: pattern already registered")
	// ErrNotRegistered reports an unknown pattern id.
	ErrNotRegistered = errors.New("contq: pattern not registered")
	// ErrNoJournal reports a replay/resume request on a registry built
	// without a journal.
	ErrNoJournal = errors.New("contq: registry has no journal")
	// ErrSeqFuture reports a replay/resume request from a sequence number
	// ahead of the registry's head (e.g. a client that outlived a server
	// which lost its journal tail); the client must re-snapshot.
	ErrSeqFuture = errors.New("contq: requested seq is ahead of the registry")
	// ErrBadKind reports a Register call whose kind is unknown or does not
	// fit the pattern (e.g. iso over a non-normal pattern) — a client
	// error, distinct from the conflict of a duplicate id.
	ErrBadKind = errors.New("contq: bad engine kind")
)

// Kind selects the engine backing a registered pattern.
type Kind string

const (
	// KindAuto picks KindSim for normal patterns and KindBSim otherwise.
	KindAuto Kind = "auto"
	// KindSim backs the pattern with incremental graph simulation
	// (incsim); the pattern must be normal.
	KindSim Kind = "sim"
	// KindBSim backs the pattern with incremental bounded simulation
	// (incbsim).
	KindBSim Kind = "bsim"
	// KindIso backs the pattern with incremental subgraph isomorphism
	// (iso); the pattern must be normal. The relation view is the union of
	// the embeddings' (u, v) pairs.
	KindIso Kind = "iso"
)

// Event is one commit's outcome for one pattern, delivered to subscribers
// in commit order. Delta may be empty (the batch did not move this
// pattern's match); Seq still advances so subscribers can track progress.
// At is the publish timestamp — delivery layers (SSE) subtract it from
// their send time to measure how stale an event was when the subscriber
// received it (zero for backfilled events, which are historical by
// definition).
type Event struct {
	Pattern string
	Seq     uint64
	Delta   rel.Delta
	At      time.Time
	// Trace is the W3C traceparent of the commit span that produced the
	// delta ("" when the commit was not sampled), so delivery layers can
	// close a delivery span on the same trace.
	Trace string
}

// Info describes one registered pattern.
type Info struct {
	ID          string
	Kind        Kind
	Nodes       int // pattern nodes
	Edges       int // pattern edges
	Subscribers int
	ResultSize  int // current |M|
}

// matcher is a registration's face of its *gdn.Handle (tests substitute
// fakes through it). Delta reports the pattern's ΔM for the commit the
// network last applied, or false when the pattern's state is undefined
// (its join's repair panicked), which is the commit's per-pattern eviction
// signal; Result returns the current match as a shared immutable snapshot
// and may run concurrently with Delta; Release gives back the network
// state behind the pattern, exactly once, under the writer lock.
type matcher interface {
	Delta() (rel.Delta, bool)
	Result() rel.Relation
	Release()
}

// registration is one standing pattern: its matcher and its subscribers.
type registration struct {
	id     string
	p      *pattern.Pattern
	text   []byte // p in the text format, written once at Register
	kind   Kind
	m      matcher
	regSeq uint64 // commit seq current when the pattern was registered

	subs feed[Event] // the pattern's ΔM subscribers
}

// def is the registration's portable form: the document a journal record or
// snapshot stores, GET /v1/patterns/{id} serves and RegisterDef takes back.
func (reg *registration) def() journal.PatternDef {
	return journal.PatternDef{ID: reg.id, Kind: string(reg.kind), Def: reg.text, RegSeq: reg.regSeq}
}

// info is the registration's listing row.
func (reg *registration) info() Info {
	return Info{
		ID:          reg.id,
		Kind:        reg.kind,
		Nodes:       reg.p.NumNodes(),
		Edges:       reg.p.NumEdges(),
		Subscribers: reg.subs.len(),
		ResultSize:  reg.m.Result().Size(),
	}
}

// Registry owns the canonical graph and the set of standing patterns.
// Construct with New; the Registry takes ownership of the graph (apply
// updates only through Apply).
type Registry struct {
	writeMu sync.Mutex   // serializes commits/Register/Unregister/Subscribe/Close
	mu      sync.RWMutex // guards pats, g, seq and counters for fast readers
	g       *graph.Graph // the ONE canonical graph all engines read through
	pats    map[string]*registration
	seq     uint64
	workers int // parallelism of the network repair (0 = default)
	closed  bool

	// net is the shared sub-pattern evaluation network: every pattern, of
	// every kind, registers into it, so structurally overlapping standing
	// patterns share predicate satisfaction sets and — for patterns
	// identical up to node renumbering — whole engines.
	// The writer repairs the network once per commit; each pattern's
	// matcher then just reads its remapped delta.
	// FromSeq backfill replays through a network of its own (see backfill).
	net *gdn.Network

	// journal, when set, records every commit (seq + net ΔG) and pattern
	// registration/unregistration, making the commit stream replayable:
	// Subscribe(FromSeq) backfills missed deltas, Replay serves raw ΔG
	// tails, and Recover rebuilds a registry after a crash. Appends happen
	// inside the writer's critical section, so the journal's record order
	// is the commit order.
	journal *journal.Journal

	// Writer queue: Apply enqueues and the first enqueuer drains, so
	// batches arriving while a commit is in flight coalesce into the next
	// commit. queue non-empty implies draining (the drainer only exits
	// once it sees an empty queue under qmu).
	qmu      sync.Mutex
	queue    []*applyReq
	draining bool

	// Commit subscribers: raw-ΔG tails (SubscribeCommitsContext, the feed
	// behind GET /v1/commits/stream and follower replication). Published
	// inside the writer's critical section.
	csubs feed[CommitEvent]

	// Telemetry: met holds the commit pipeline's instruments (per-stage
	// histograms, queue-wait, subscription gauges), registered in obsReg —
	// obs.Default() unless WithMetrics injected one. commitObs, when set,
	// receives every committed drain's per-stage breakdown (the
	// slow-commit logging hook).
	obsReg    *obs.Registry
	met       *metrics
	commitObs func(CommitTiming)

	// tracer records per-commit span trees: one trace follows a batch
	// from the caller's ingest span through queue wait, every commit
	// stage, and publish — and, via the traceparent threaded onto the
	// journal record and commit/delta events, across the replication
	// topology. trace.Default() (off) unless WithTracer installs a
	// sampling tracer, so the untraced hot path costs one nil check per
	// span site.
	tracer *trace.Tracer

	// Resume-clone cache: one immutable graph clone per head sequence,
	// shared by every FromSeq resume at that head so a reconnect storm
	// pays a single O(|G|) copy under the writer lock instead of one per
	// client. Invalidated by each commit.
	resumeMu  sync.Mutex
	resumeSeq uint64
	resumeG   *graph.Graph

	// Cumulative writer counters, written inside the commit's r.mu
	// critical section and read by Stats.
	commits      uint64 // committed drains (each advanced seq by one)
	applies      uint64 // Apply calls admitted into commits
	upsSubmitted uint64 // updates admitted before coalescing
	upsApplied   uint64 // effective updates after coalescing
	evictions    uint64 // patterns evicted after a panicking repair
}

// applyReq is one caller's queued Apply: its batch on the way in, its
// commit seq or validation error on the way out. enq stamps the moment the
// batch entered the coalescing queue, so the commit can report how long
// callers waited behind the in-flight drain.
type applyReq struct {
	ups  []graph.Update
	enq  time.Time
	sc   trace.SpanContext // the caller's span (ApplyContext), zero when untraced
	seq  uint64
	err  error
	done chan struct{}
}

// Option configures a Registry.
type Option func(*Registry)

// WithWorkers bounds how many joins the shared network repairs
// concurrently during one commit; it is also each simulation engine's
// internal sweep width (0 = par.DefaultWorkers).
func WithWorkers(n int) Option {
	return func(r *Registry) { r.workers = n }
}

// WithJournal attaches a commit journal: every commit's net ΔG and every
// pattern (un)registration is appended to j, which then serves
// Subscribe(..., FromSeq(n)) resumes and Replay tails, and — for durable
// journals — crash recovery via Recover. The journal must be empty or
// freshly Reset (its head sequence must match the registry's, which New
// starts at 0); to adopt a journal with history, use Recover instead.
// Registry.Close flushes and fsyncs the journal but does not close it
// (the journal may outlive the registry, e.g. across graph reloads).
func WithJournal(j *journal.Journal) Option {
	return func(r *Registry) { r.journal = j }
}

// WithTracer directs the registry's commit spans into t instead of the
// process-wide trace.Default() (which is off). The commit pipeline opens
// one span per stage under the caller's trace — or a fresh root trace
// when the tracer's mode samples it — and the resulting traceparent
// rides the journal record and every published event.
func WithTracer(t *trace.Tracer) Option {
	return func(r *Registry) { r.tracer = t }
}

// New builds a registry over g, taking ownership of it. When a journal is
// attached (WithJournal) and it is brand new, it is seeded with a
// snapshot of g so crash recovery can replay commits over the starting
// state.
func New(g *graph.Graph, options ...Option) *Registry {
	r := &Registry{g: g, pats: make(map[string]*registration)}
	for _, o := range options {
		o(r)
	}
	if r.obsReg == nil {
		r.obsReg = obs.Default()
	}
	if r.tracer == nil {
		r.tracer = trace.Default()
	}
	r.met = newMetrics(r.obsReg)
	r.net = gdn.New(g, r.workers)
	if r.journal != nil {
		r.journal.Bootstrap(g) //nolint:errcheck // failure lands in journal.Stats.LastError
	}
	return r
}

// Register installs a standing pattern under id, choosing the backing
// engine by kind. The engine computes its initial match over the current
// graph state; the call is atomic with respect to commits, so the new
// pattern sees every later batch exactly once.
func (r *Registry) Register(id string, p *pattern.Pattern, kind Kind) error {
	var text bytes.Buffer
	p.Write(&text) //nolint:errcheck // writes to a bytes.Buffer cannot fail
	return r.register(id, p, text.Bytes(), kind, nil)
}

// register is Register given p's text form and, for RegisterDef, the
// registration sequence to record instead of the head.
func (r *Registry) register(id string, p *pattern.Pattern, text []byte, kind Kind, regSeq *uint64) error {
	if id == "" {
		return fmt.Errorf("contq: empty pattern id")
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.pats[id]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, id)
	}
	if kind == "" || kind == KindAuto {
		if p.IsNormal() {
			kind = KindSim
		} else {
			kind = KindBSim
		}
	}
	// Every pattern enters the shared evaluation network, whose engines
	// read the canonical graph through private update overlays: registering
	// P patterns costs at most P × pattern-state, not P graph clones, and
	// structurally identical sub-patterns (and whole patterns, up to
	// renumbering) share state with every other registered pattern.
	h, err := r.net.Register(string(kind), p)
	if err != nil {
		// The network only rejects patterns that do not fit the kind.
		return fmt.Errorf("%w: %w", ErrBadKind, err)
	}
	r.mu.RLock()
	seq := r.seq
	r.mu.RUnlock()
	// Journal the registration (with the resolved kind) before installing
	// it, so a pattern is never live without being recoverable. On failure
	// the handle must give back the network state it acquired.
	reg := &registration{id: id, p: p, text: text, kind: kind, m: h, regSeq: seq}
	if r.journal != nil {
		if err := r.journal.AppendRegister(seq, id, string(kind), text); err != nil {
			h.Release()
			return fmt.Errorf("contq: journaling pattern %q: %w", id, err)
		}
	}
	if regSeq != nil {
		reg.regSeq = *regSeq
	}
	r.mu.Lock()
	r.pats[id] = reg
	r.mu.Unlock()
	r.publishPatternsLocked(seq)
	return nil
}

// Unregister removes a standing pattern and cancels its subscriptions,
// reporting whether the id was registered.
func (r *Registry) Unregister(id string) bool {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.mu.Lock()
	reg, ok := r.pats[id]
	delete(r.pats, id)
	seq := r.seq
	r.mu.Unlock()
	if !ok {
		return false
	}
	r.dropLocked(reg, seq)
	return true
}

// dropLocked journals, publishes and releases a registration already
// removed from pats, closing its subscribers. Called under writeMu.
func (r *Registry) dropLocked(reg *registration, seq uint64) {
	if r.journal != nil {
		// Best-effort: an append failure is recorded in the journal's
		// stats (LastError); the removal itself stands.
		r.journal.AppendUnregister(seq, reg.id) //nolint:errcheck // see above
	}
	r.publishPatternsLocked(seq)
	reg.m.Release()
	reg.subs.closeAll()
}

// Apply submits one batch of edge updates and blocks until the commit
// containing it completes, returning that commit's sequence number. The
// batch is validated independently of any other caller's (an invalid
// batch gets its own error and poisons nothing). On error, a zero seq
// means the batch was never committed; a nonzero seq means it WAS
// committed and published but a post-commit step failed (e.g. the
// journal append — the state stands in memory but is not durable).
//
// Batches queued while a commit is in flight coalesce into the next
// commit: their updates are concatenated in arrival order and cancelled
// at the edge level (insert/delete pairs of the same edge annihilate;
// updates restating the graph's current state vanish), then the net
// effective ΔG repairs the network's engines in parallel and is applied to
// the canonical graph exactly once. Each commit — even one whose batch
// cancelled to nothing — advances the sequence by one and publishes one
// event per pattern, so subscribers see consecutive sequence numbers and
// snapshot ⊕ deltas keeps reproducing Result().
func (r *Registry) Apply(ups []graph.Update) (uint64, error) {
	req := &applyReq{ups: ups, enq: time.Now(), done: make(chan struct{})}
	r.qmu.Lock()
	if r.draining {
		// A drainer is active; it (or its successor) picks this up.
		r.queue = append(r.queue, req)
		r.qmu.Unlock()
	} else {
		r.queue = append(r.queue, req)
		r.draining = true
		r.qmu.Unlock()
		// The first enqueuer commits the batch containing its own request
		// synchronously; work queued behind that commit continues on a
		// background drainer, so no caller is ever held past its own
		// commit.
		r.drainStep(true)
	}
	<-req.done
	return req.seq, req.err
}

// ApplyContext is Apply with real cancellation: it returns as soon as ctx
// is done instead of waiting for the commit. The commit itself is never
// torn — a batch the writer has already picked up still commits whole —
// but a batch still waiting in the queue is withdrawn, so a zero sequence
// with ctx's error means the batch was definitely not (queue-withdrawn)
// or not observably (abandoned mid-drain) committed; callers that must
// know re-sync via Seq/Replay. Unlike Apply, the drain always runs on a
// background goroutine, so a canceled caller never abandons the drainer
// role with batches queued.
func (r *Registry) ApplyContext(ctx context.Context, ups []graph.Update) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	req := &applyReq{ups: ups, enq: time.Now(), sc: trace.FromContext(ctx), done: make(chan struct{})}
	r.qmu.Lock()
	r.queue = append(r.queue, req)
	drain := !r.draining
	if drain {
		r.draining = true
	}
	r.qmu.Unlock()
	if drain {
		go r.drainStep(false)
	}
	select {
	case <-req.done:
		return req.seq, req.err
	case <-ctx.Done():
	}
	// Canceled: withdraw the batch if the drainer has not taken it yet, so
	// it provably never commits. Once in a drain, the outcome is decided
	// without us — report the cancellation and let the commit stand.
	r.qmu.Lock()
	for i, q := range r.queue {
		if q == req {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			r.qmu.Unlock()
			return 0, ctx.Err()
		}
	}
	r.qmu.Unlock()
	// Not in the queue: the drainer took it. The commit may have finished
	// in the same instant the context fired — prefer the real outcome over
	// an "unknown" report when it is already knowable.
	select {
	case <-req.done:
		return req.seq, req.err
	default:
	}
	return 0, fmt.Errorf("contq: apply abandoned mid-commit: %w", ctx.Err())
}

// Closed reports whether the registry has been shut down (readiness
// probes use it; writes would fail with ErrClosed).
func (r *Registry) Closed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// drainStep commits one drained batch. Call with r.draining already true
// and r.qmu released. If more batches queued up during the commit, the
// drain continues on a background goroutine (bounding every caller's
// latency at one commit); otherwise the draining flag clears. A panicking
// commit must not wedge the writer: queued requests are failed, the flag
// clears, and the panic propagates to the synchronous caller (propagate
// true) or is converted into the waiters' errors on a background drainer
// (propagate false), where re-panicking would kill the process.
func (r *Registry) drainStep(propagate bool) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		err := fmt.Errorf("contq: commit panicked: %v", rec)
		r.qmu.Lock()
		pending := r.queue
		r.queue = nil
		r.draining = false
		r.qmu.Unlock()
		for _, q := range pending {
			q.err = err
			close(q.done)
		}
		if propagate {
			panic(rec)
		}
	}()
	r.qmu.Lock()
	batch := r.queue
	r.queue = nil
	r.qmu.Unlock()
	r.commit(batch)
	r.qmu.Lock()
	if len(r.queue) == 0 {
		r.draining = false
		r.qmu.Unlock()
		return
	}
	r.qmu.Unlock()
	go r.drainStep(false)
}

// validate checks one caller's batch against the canonical graph. Called
// under writeMu (node ids are append-only, so a batch valid now stays
// valid for the rest of the commit).
func (r *Registry) validate(ups []graph.Update) error {
	for _, up := range ups {
		if up.Op != graph.InsertEdge && up.Op != graph.DeleteEdge {
			return fmt.Errorf("contq: update %v has unknown op %d", up, up.Op)
		}
		if !r.g.HasNode(up.From) || !r.g.HasNode(up.To) {
			return fmt.Errorf("contq: update %v references a node outside the graph", up)
		}
	}
	return nil
}

// commit validates, coalesces and commits one drained batch of Apply
// requests under the writer lock, then reports each caller's outcome. The
// edge-level cancellation (insert/delete pairs of the same edge inside
// one drain annihilate; restatements of the current graph state vanish)
// is graph.NetUpdates — the same minDelta reduction the engines use.
func (r *Registry) commit(batch []*applyReq) {
	defer func() {
		rec := recover()
		if rec != nil {
			// The commit panicked outside the network (which contains engine
			// panics itself): tell every caller still in flight what happened
			// before unblocking it.
			err := fmt.Errorf("contq: commit panicked: %v", rec)
			for _, req := range batch {
				if req.err == nil && req.seq == 0 {
					req.err = err
				}
			}
		}
		for _, req := range batch {
			close(req.done)
		}
		if rec != nil {
			panic(rec)
		}
	}()
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if r.closed {
		for _, req := range batch {
			req.err = ErrClosed
		}
		return
	}
	// Telemetry: the commit clock starts once the writer lock is held (the
	// wait for it is the callers' queue-wait, observed per request below),
	// and each pipeline stage is stamped as it completes.
	start := time.Now()
	for _, req := range batch {
		if !req.enq.IsZero() {
			r.met.queueWait.ObserveDuration(start.Sub(req.enq))
			// A traced caller's queue wait becomes a span under its own
			// ingest span: the time its batch sat behind the in-flight
			// commit before this drain picked it up.
			if qs := r.tracer.StartSpanAt(req.sc, "queue.wait", req.enq); qs != nil {
				qs.EndAt(start)
			}
		}
	}
	r.met.drainSize.Observe(float64(len(batch)))
	// Per-caller validation: a bad batch fails alone, the rest commit.
	// A rejected request keeps seq 0 — callers (and the HTTP layer) use a
	// nonzero seq with an error to distinguish "committed but a later
	// step failed" from "never committed".
	valid := make([]*applyReq, 0, len(batch))
	var combined []graph.Update
	for _, req := range batch {
		if err := r.validate(req.ups); err != nil {
			req.err = err
			continue
		}
		valid = append(valid, req)
		combined = append(combined, req.ups...)
	}
	if len(valid) == 0 {
		return
	}
	effective := graph.NetUpdates(r.g, combined)
	ct := CommitTiming{Validate: time.Since(start), Batches: len(valid), Updates: len(effective)}
	r.met.validate.ObserveDuration(ct.Validate)
	r.met.drainUps.Observe(float64(len(effective)))

	// The commit span continues the first traced caller's trace; every
	// other traced caller coalesced into this drain becomes a span link,
	// so a merged batch still connects back to each origin. With no
	// traced caller the tracer's own mode decides (a fresh root trace,
	// or nil — the no-op span — when unsampled).
	var parent trace.SpanContext
	for _, req := range valid {
		if req.sc.Valid() && req.sc.Sampled {
			parent = req.sc
			break
		}
	}
	var cspan *trace.Span
	if parent.Valid() {
		cspan = r.tracer.StartSpanAt(parent, "commit", start)
		for _, req := range valid {
			if req.sc.Valid() && req.sc != parent {
				cspan.AddLink(req.sc)
			}
		}
	} else {
		cspan = r.tracer.StartRootAt("commit", start)
	}
	cspan.SetAttr("batches", len(valid))
	cspan.SetAttr("submitted_updates", len(combined))

	// The committed callback stamps every caller's seq the instant it is
	// assigned — before journaling and publishing — so a failure (or panic)
	// in any later step surfaces as "committed at seq N but X failed",
	// never as the seq-0 signal that means the batch was rejected.
	_, jerr, err := r.commitEffectiveLocked(effectiveCommit{
		effective: effective, applies: len(valid), submitted: len(combined),
		ct: ct, start: start, span: cspan,
		committed: func(seq uint64) {
			for _, req := range valid {
				req.seq = seq
			}
		},
	})
	if err != nil {
		// No seq was assigned: callers see seq 0 with the error.
		for _, req := range valid {
			req.err = err
		}
		return
	}
	if jerr != nil {
		for _, req := range valid {
			req.err = jerr
		}
	}
}

// effectiveCommit is one net effective batch on its way through
// commitEffectiveLocked, with what its caller already knows about it.
type effectiveCommit struct {
	effective []graph.Update
	// applies and submitted are the caller-side counts for Stats: Apply
	// calls admitted, unit updates before coalescing.
	applies, submitted int
	// ct arrives with Validate, Batches and Updates filled in; start is
	// the commit clock's zero (writer lock acquired).
	ct    CommitTiming
	start time.Time
	// span is the commit's span (nil when unsampled). The pipeline owns it
	// from here: it hangs one child span per stage off it, stamps the
	// sequence, threads its traceparent onto the journal record and every
	// published event, and ends it.
	span *trace.Span
	// committed, if non-nil, runs the instant the sequence is assigned —
	// before journaling and publishing — so callers can record the seq
	// even if a later step panics.
	committed func(seq uint64)
}

// commitEffectiveLocked runs the committed half of the pipeline for one
// net effective batch, under writeMu: shared-network repair, per-pattern
// delta reads, canonical graph mutation, sequence assignment, journaling,
// publishes (pattern deltas and raw-ΔG commit subscribers) and evictions.
// Both the coalescing writer (commit) and the replication path
// (ApplyReplicated) funnel through here, so leader and follower commits
// are byte-for-byte the same pipeline.
//
// The returned jerr is a journal append failure — the commit still stands
// in memory and was published; err means the commit did not happen (the
// canonical graph rejected the batch) and no sequence was consumed.
func (r *Registry) commitEffectiveLocked(c effectiveCommit) (seq uint64, jerr, err error) {
	effective, ct, start, cspan := c.effective, &c.ct, c.start, c.span
	cspan.SetAttr("effective_updates", len(effective))
	if ct.Validate > 0 {
		// Validation ran in the caller before the span existed; backdate
		// its stage span so the tree covers the whole pipeline.
		if vs := r.tracer.StartSpanAt(cspan.Context(), "stage.validate", start); vs != nil {
			vs.EndAt(start.Add(ct.Validate))
		}
	}
	// Repair the shared evaluation network once for the whole commit: every
	// engine repair, of every kind, happens here, and a join whose repair
	// panicked is contained inside the network, which marks it broken.
	if len(effective) > 0 {
		var savedBefore int64
		if cspan != nil {
			savedBefore = r.net.Stats().RepairsSaved
		}
		nspan := r.stage(cspan, "stage.network", &ct.Network, r.met.network, func(time.Time) {
			r.net.Apply(effective)
		})
		if nspan != nil {
			st := r.net.Stats()
			nspan.SetAttr("repairs_saved", st.RepairsSaved-savedBefore)
			nspan.SetAttr("join_nodes", st.JoinNodes)
		}
	}

	// Read every pattern's delta from the network (the stage keeps its
	// "repair" name). A pattern whose join broke is dropped from regs: the
	// other joins have already absorbed the batch, so the commit must
	// proceed (graph mutation, seq, journal, publishes) or every surviving
	// engine would be permanently desynced from the canonical graph. The
	// broken pattern's state is undefined, so it is evicted below. With no
	// effective update the network did not run and every delta is empty.
	regs := r.snapshotRegs()
	deltas := make([]rel.Delta, len(regs))
	var broken []*registration
	ct.Patterns = len(regs)
	if len(effective) > 0 {
		rspan := r.stage(cspan, "stage.repair", &ct.Repair, r.met.repair, func(time.Time) {
			live := regs[:0]
			for _, reg := range regs {
				if d, ok := reg.m.Delta(); ok {
					deltas[len(live)] = d
					live = append(live, reg)
				} else {
					broken = append(broken, reg)
				}
			}
			regs = live
		})
		rspan.SetAttr("patterns_repaired", ct.Patterns)
	}

	r.mu.Lock()
	if len(effective) > 0 {
		if _, aerr := r.g.ApplyAll(effective); aerr != nil {
			// Unreachable after validation + coalescing on the writer path;
			// on the replication path it means the replica diverged.
			r.mu.Unlock()
			cspan.SetAttr("error", aerr.Error())
			cspan.End()
			return 0, nil, fmt.Errorf("contq: canonical graph diverged: %w", aerr)
		}
	}
	r.seq++
	seq = r.seq
	r.commits++
	r.applies += uint64(c.applies)
	r.upsSubmitted += uint64(c.submitted)
	r.upsApplied += uint64(len(effective))
	r.mu.Unlock()
	cspan.SetSeq(seq)
	tp := cspan.Traceparent()
	if c.committed != nil {
		c.committed(seq)
	}
	// The graph (and head) moved on: drop the resume-clone cache so no
	// later resume reuses a stale copy (also frees its memory).
	r.resumeMu.Lock()
	r.resumeG = nil
	r.resumeMu.Unlock()
	// Journal the commit before publishing it, so no subscriber ever holds
	// a sequence number the journal cannot replay. An append failure (disk
	// full) surfaces to every caller in the commit — the state change
	// stands in memory but is not durable — and the registry keeps serving.
	if r.journal != nil {
		var aerr error
		jspan := r.stage(cspan, "stage.journal", &ct.Journal, r.met.journal, func(time.Time) {
			if aerr = r.journal.AppendCommitTrace(seq, effective, tp); aerr == nil && r.journal.SnapshotDue() {
				// Checkpoint under the writer lock: the canonical graph is
				// stable here, and blocking the next commit bounds how far the
				// snapshot can lag the head. Failures land in journal stats.
				r.journal.WriteSnapshot(seq, r.g, r.patternDefs()) //nolint:errcheck // recorded in journal.Stats
			}
		})
		if aerr != nil {
			jerr = fmt.Errorf("contq: commit %d applied but not journaled: %w", seq, aerr)
			jspan.SetAttr("error", aerr.Error())
		}
	}
	r.stage(cspan, "stage.publish", &ct.Publish, r.met.publish, func(at time.Time) {
		r.csubs.publish(CommitEvent{Seq: seq, Updates: effective, At: at, Trace: tp})
		for i, reg := range regs {
			reg.subs.publish(Event{Pattern: reg.id, Seq: seq, Delta: deltas[i], At: at, Trace: tp})
		}
	})
	// Evict patterns whose join broke: their match state is undefined, so
	// they must not serve another result or delta. Their subscribers'
	// channels close (the unregistered signal) and the eviction is
	// journaled so recovery agrees.
	for _, reg := range broken {
		r.evictLocked(reg, seq)
	}
	ct.Seq, ct.Total = seq, time.Since(start)
	ct.Trace = tp
	r.met.total.ObserveDuration(ct.Total)
	r.met.commits.Inc()
	r.met.applies.Add(uint64(c.applies))
	cspan.End()
	if r.commitObs != nil {
		r.commitObs(*ct)
	}
	return seq, jerr, nil
}

// stage times fn as one stage of a commit. The same two clock readings
// bound the stage's CommitTiming field *d, its histogram h and its child
// span under parent, which stage returns ended (nil when the commit is
// unsampled; every span method is a no-op on nil). fn gets the stage's
// start instant.
func (r *Registry) stage(parent *trace.Span, name string, d *time.Duration, h *obs.Histogram, fn func(start time.Time)) *trace.Span {
	start := time.Now()
	sp := r.tracer.StartSpanAt(parent.Context(), name, start)
	fn(start)
	*d = time.Since(start)
	h.ObserveDuration(*d)
	sp.EndAt(start.Add(*d))
	return sp
}

// Tracer returns the tracer recording this registry's commit spans —
// trace.Default() (off) unless WithTracer installed one. Servers render
// its retained traces (see GET /v1/tracez).
func (r *Registry) Tracer() *trace.Tracer {
	return r.tracer
}

// evictLocked removes a pattern whose engine is no longer trustworthy.
// Called under writeMu (from inside a commit).
func (r *Registry) evictLocked(reg *registration, seq uint64) {
	r.mu.Lock()
	cur, ok := r.pats[reg.id]
	if !ok || cur != reg {
		r.mu.Unlock()
		return
	}
	delete(r.pats, reg.id)
	r.evictions++
	r.mu.Unlock()
	r.dropLocked(reg, seq)
}

// publishPatternsLocked offers commit subscribers the pattern set as it
// stands at seq, after a registration or removal. Called under writeMu,
// which also guards commit-subscriber attach, so no subscriber misses it.
func (r *Registry) publishPatternsLocked(seq uint64) {
	if r.csubs.len() > 0 {
		r.csubs.publish(CommitEvent{Seq: seq, Patterns: r.patternDefs()})
	}
}

// patternDefs is the registered patterns' portable forms (non-nil, so a
// pattern-set CommitEvent with no pattern is still one).
func (r *Registry) patternDefs() []journal.PatternDef {
	regs := r.snapshotRegs()
	defs := make([]journal.PatternDef, 0, len(regs))
	for _, reg := range regs {
		defs = append(defs, reg.def())
	}
	return defs
}

func (r *Registry) snapshotRegs() []*registration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	regs := make([]*registration, 0, len(r.pats))
	for _, reg := range r.pats {
		regs = append(regs, reg)
	}
	return regs
}

// SubscribeOption configures a Subscribe call.
type SubscribeOption func(*subscribeOpts)

type subscribeOpts struct {
	fromSeq uint64
	hasFrom bool
}

// FromSeq resumes a subscription from commit sequence n: the subscriber
// already holds the pattern's match relation as of n (from an earlier
// snapshot plus deltas), and the subscription's events begin at n+1 with
// the missed deltas backfilled from the journal — no snapshot re-send.
// The returned subscription has Snapshot nil and Seq n.
//
// Backfill replays the journal's net update batches for (n, head] through
// a fresh one-pattern network (the same Apply and Delta paths live commits
// use), so the deltas are exactly what a connected subscriber would have
// seen. Requires a journal that still retains the range: the call fails
// with ErrNoJournal, ErrSeqFuture, or an error wrapping
// journal.ErrCompacted when resumption is impossible, and the caller must
// fall back to a fresh Subscribe.
func FromSeq(n uint64) SubscribeOption {
	return func(o *subscribeOpts) { o.fromSeq = n; o.hasFrom = true }
}

// Subscribe opens a match-delta subscription for pattern id. The returned
// subscription carries the pattern's current result snapshot and the
// commit sequence it reflects, atomically with respect to commits: the
// first event on C is the first commit after Seq, so Snapshot plus the
// accumulated deltas always reproduces the live result. The snapshot is
// shared and must not be mutated (Clone it to accumulate). With FromSeq,
// the snapshot is skipped and missed deltas are backfilled instead.
//
// Delivery never blocks the writer: events queue in an unbounded per-
// subscriber mailbox and drain in commit order.
func (r *Registry) Subscribe(id string, options ...SubscribeOption) (*Subscription, error) {
	return r.SubscribeContext(context.Background(), id, options...) //gpmvet:ignore legacy non-ctx API: this wrapper is the documented detachment point
}

// SubscribeContext is Subscribe with cancellation: a FromSeq resume's
// journal scan and delta backfill — the potentially slow parts — stop and
// the call fails with ctx's error as soon as ctx is done, detaching the
// half-built subscription.
func (r *Registry) SubscribeContext(ctx context.Context, id string, options ...SubscribeOption) (*Subscription, error) {
	var o subscribeOpts
	for _, opt := range options {
		opt(&o)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.hasFrom {
		return r.subscribeFrom(ctx, id, o.fromSeq)
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	r.mu.RLock()
	reg, ok := r.pats[id]
	seq := r.seq
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotRegistered, id)
	}
	return r.newSubscription(reg, reg.m.Result(), seq, false), nil
}

// Result returns pattern id's current match relation (a shared immutable
// snapshot — do not mutate) without blocking behind writers.
func (r *Registry) Result(id string) (rel.Relation, bool) {
	r.mu.RLock()
	reg, ok := r.pats[id]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return reg.m.Result(), true
}

// Patterns lists the registered patterns.
func (r *Registry) Patterns() []Info {
	regs := r.snapshotRegs()
	infos := make([]Info, 0, len(regs))
	for _, reg := range regs {
		infos = append(infos, reg.info())
	}
	return infos
}

// Info describes pattern id — its kind is the resolved one, never
// KindAuto — and reports whether the id is registered.
func (r *Registry) Info(id string) (Info, bool) {
	r.mu.RLock()
	reg, ok := r.pats[id]
	r.mu.RUnlock()
	if !ok {
		return Info{}, false
	}
	return reg.info(), true
}

// GraphInfo reports the canonical graph's size, the number of registered
// patterns and the current commit sequence.
func (r *Registry) GraphInfo() (nodes, edges, patterns int, seq uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.g.NumNodes(), r.g.NumEdges(), len(r.pats), r.seq
}

// Seq returns the current commit sequence number.
func (r *Registry) Seq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// Stats is a point-in-time snapshot of the registry: the shared canonical
// graph's size, the commit sequence, and the writer's cumulative
// coalescing counters.
type Stats struct {
	Patterns int    `json:"patterns"`
	Seq      uint64 `json:"seq"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	// Commits counts committed drains; each advanced Seq by one.
	Commits uint64 `json:"commits"`
	// Applies counts Apply calls admitted into commits; Applies - Commits
	// is the number of Apply calls absorbed by coalescing.
	Applies uint64 `json:"applies"`
	// CoalescedApplies = Applies - Commits: Apply calls that shared a
	// commit with another caller instead of paying their own commit.
	CoalescedApplies uint64 `json:"coalesced_applies"`
	// UpdatesSubmitted / UpdatesApplied count unit updates before and
	// after edge-level cancellation; the difference is UpdatesCancelled.
	UpdatesSubmitted uint64 `json:"updates_submitted"`
	UpdatesApplied   uint64 `json:"updates_applied"`
	UpdatesCancelled uint64 `json:"updates_cancelled"`
	// PatternsEvicted counts patterns dropped because their engine
	// panicked during a repair (their match state became undefined); a
	// nonzero value means subscribers saw their streams close.
	PatternsEvicted uint64 `json:"patterns_evicted"`
	// Network reports the shared sub-pattern evaluation network's shape and
	// sharing counters: how many shared nodes back the registered sim/bsim
	// patterns, how many registrations reused an existing join, and how
	// many per-pattern repairs sharing plus relevance filtering saved.
	// Always set; a pointer because the wire format has always carried it
	// as an optional block.
	Network *gdn.Stats `json:"network,omitempty"`
	// Journal, when the registry has one, reports the commit log's
	// retention and footprint (appended commits, segments, bytes, oldest
	// retained seq).
	Journal *journal.Stats `json:"journal,omitempty"`
	// Timings is the commit pipeline's latency telemetry: per-stage
	// histograms (queue wait, validate, network, delta reads, journal,
	// publish, total) summarized as count/sum/max/quantiles, plus the
	// subscription gauges. The same instruments back GET /v1/metricz; this
	// block is their typed JSON face — the observation stream the adaptive
	// execution policy consumes.
	Timings *TimingStats `json:"timings,omitempty"`
}

// Metrics returns the obs registry holding this registry's instruments —
// obs.Default() unless WithMetrics injected one. Servers render it (see
// GET /v1/metricz); tests read it back directly.
func (r *Registry) Metrics() *obs.Registry {
	return r.obsReg
}

// Stats returns the registry's current statistics without blocking behind
// writers.
func (r *Registry) Stats() Stats {
	var js *journal.Stats
	if r.journal != nil {
		s := r.journal.Stats()
		js = &s
	}
	ns := r.net.Stats()
	ts := r.met.timingStats()
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{
		Journal:          js,
		Network:          &ns,
		Timings:          ts,
		Patterns:         len(r.pats),
		Seq:              r.seq,
		Nodes:            r.g.NumNodes(),
		Edges:            r.g.NumEdges(),
		Commits:          r.commits,
		Applies:          r.applies,
		CoalescedApplies: r.applies - r.commits,
		UpdatesSubmitted: r.upsSubmitted,
		UpdatesApplied:   r.upsApplied,
		UpdatesCancelled: r.upsSubmitted - r.upsApplied,
		PatternsEvicted:  r.evictions,
	}
}

// Close unregisters every pattern and cancels all subscriptions; further
// writes fail. Any in-flight commit drains first, and a journaled
// registry's journal is flushed and fsynced before Close returns (the
// journal itself stays open — its owner closes it).
func (r *Registry) Close() {
	r.writeMu.Lock()
	r.mu.Lock()
	// closed is written under BOTH locks: the write paths read it under
	// writeMu, the lock-free Closed() accessor under mu.
	r.closed = true
	pats := r.pats
	r.pats = make(map[string]*registration)
	r.mu.Unlock()
	if r.journal != nil {
		// Under writeMu: every commit that ever got a seq is already
		// appended, and no new one can start.
		r.journal.Sync() //nolint:errcheck // recorded in journal.Stats
	}
	r.writeMu.Unlock()
	// Safe without writeMu: closed is set, so no commit can publish again.
	r.csubs.closeAll()
	for _, reg := range pats {
		// Safe without writeMu: closed is set, so no commit, Register or
		// Unregister can touch these matchers again.
		reg.m.Release()
		reg.subs.closeAll()
	}
}
