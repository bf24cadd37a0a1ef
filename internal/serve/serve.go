// Package serve is the HTTP surface of the continuous-query subsystem:
// the handler behind cmd/gpserve. It wraps a contq.Registry with a
// versioned wire API (all routes under /v1) to load a graph,
// register/unregister standing patterns, ingest edge updates, read
// current results, and stream match deltas over Server-Sent Events.
//
//	Method  Path                       Body (in)             Effect
//	------  -------------------------  --------------------  ------------------------------
//	POST    /v1/graph                  graph text | JSON     load graph, reset registry
//	GET     /v1/graph                  —                     graph + registry info
//	PUT     /v1/patterns/{id}?kind=K   pattern text | JSON   register standing pattern
//	GET     /v1/patterns               —                     list registered patterns
//	GET     /v1/patterns/{id}/result   —                     current match relation
//	DELETE  /v1/patterns/{id}          —                     unregister, close streams
//	POST    /v1/updates                update text | JSON    commit batch, fan out deltas
//	GET     /v1/patterns/{id}/stream   —                     SSE: snapshot, then deltas
//	GET     /v1/commits?from=N         —                     raw ΔG tail after seq N
//	GET     /v1/stats                  —                     registry + journal stats
//	GET     /v1/metricz                —                     Prometheus text exposition
//	GET     /v1/tracez                 —                     recent commit traces (JSON)
//	GET     /v1/healthz                —                     liveness (always 200)
//	GET     /v1/readyz                 —                     readiness (registry + journal)
//
// Request bodies are content-negotiated: Content-Type application/json
// selects the JSON wire documents (see the graph and pattern packages'
// MarshalJSON), anything else the repository's line-oriented text
// formats, so existing curl/CLI sessions keep working. Responses are
// always JSON, and every failure is one uniform envelope
// {"code", "message", "seq"?} with a stable machine-readable code (see
// wire.go).
//
// Streams resume: every SSE frame carries its commit sequence as the SSE
// id, so a dropped client reconnects with the standard Last-Event-ID
// header (or ?from=N) and receives exactly the deltas it missed — no
// snapshot re-send — as long as the registry's journal still retains the
// range; otherwise the server falls back to a fresh snapshot frame.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpm/internal/contq"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/obs/trace"
)

// Server wraps a contq.Registry with the HTTP surface. Construct with New
// (in-memory journal: streams resume, nothing survives the process) or
// NewWithJournal (durable journal: crash recovery too).
type Server struct {
	mu      sync.RWMutex // guards reg/journal (swapped by POST /graph or SetRegistry)
	reg     *contq.Registry
	opts    []contq.Option // re-applied to every registry a graph swap creates
	journal *journal.Journal
	mux     *http.ServeMux

	// Follower mode (NewReadOnly): writes are rejected with a read_only
	// envelope naming leader; readyCheck and statsExtra are the follow
	// package's hooks into /v1/readyz and /v1/stats.
	readOnly   bool
	leader     string
	readyCheck func() error
	statsExtra func() any
}

// New builds a server over an initially empty graph with a memory-only
// journal, so SSE streams are resumable out of the box. POST /v1/graph
// installs a real graph.
func New(options ...contq.Option) *Server { return newServer(options, false, "") }

// NewWithJournal builds a server whose state is recovered from (and
// journaled to) j — typically a durable journal.Open directory: the
// graph, standing patterns and commit sequence are rebuilt from the
// latest snapshot plus the record tail, and every later commit is
// appended. The server does not close j; the caller does, after Close.
func NewWithJournal(j *journal.Journal, options ...contq.Option) (*Server, error) {
	reg, err := contq.Recover(j, options...)
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, opts: options, journal: j}
	registerBuildInfo(reg.Metrics())
	s.initMux()
	return s, nil
}

// NewReadOnly builds a follower-facing server: every read route serves
// from the local registry, every write is rejected with a read_only
// envelope naming leaderURL. The initial registry is an empty placeholder
// (readyz reports not ready until the follower installs its bootstrapped
// registry via SetRegistry) so the listener can come up — and answer
// health probes — while the bootstrap is still fetching the snapshot.
func NewReadOnly(leaderURL string, options ...contq.Option) *Server {
	return newServer(options, true, leaderURL)
}

// newServer is New and NewReadOnly: a registry over an empty graph with a
// memory-only journal, read-only and naming leader when readOnly is set.
func newServer(options []contq.Option, readOnly bool, leader string) *Server {
	s := &Server{opts: options, journal: journal.New(), readOnly: readOnly, leader: leader}
	s.reg = contq.New(graph.New(), s.registryOpts()...)
	registerBuildInfo(s.reg.Metrics())
	s.initMux()
	return s
}

// SetRegistry atomically installs a replacement registry and its journal —
// the follower's (re)bootstrap hook. The previous registry is closed, which
// ends its SSE subscriptions; because leader and follower assign identical
// sequence numbers, reconnecting clients resume against the new registry
// with their existing Last-Event-ID.
func (s *Server) SetRegistry(reg *contq.Registry, j *journal.Journal) {
	s.mu.Lock()
	old := s.reg
	s.reg = reg
	if j != nil {
		s.journal = j
	}
	s.mu.Unlock()
	// The replacement registry may carry its own metrics registry; make
	// sure the build gauge exists there too (get-or-create: no duplicate).
	registerBuildInfo(reg.Metrics())
	if old != nil && old != reg {
		old.Close()
	}
}

// SetReadyCheck installs an additional readiness gate consulted by
// /v1/readyz: a non-nil error answers 503 not_ready with the error text.
// The follower uses it to report bootstrapping and replication lag.
func (s *Server) SetReadyCheck(fn func() error) {
	s.mu.Lock()
	s.readyCheck = fn
	s.mu.Unlock()
}

// SetStatsExtra installs a provider whose value is attached to the
// /v1/stats document under "follower" — replication state next to the
// registry's own counters.
func (s *Server) SetStatsExtra(fn func() any) {
	s.mu.Lock()
	s.statsExtra = fn
	s.mu.Unlock()
}

// initMux builds the route table, every route under /v1. A known path
// with the wrong method gets a 405 envelope with an Allow header; an
// unknown path a 404 envelope.
func (s *Server) initMux() {
	mux := http.NewServeMux()
	routes := []struct {
		path    string
		methods map[string]http.HandlerFunc
	}{
		{path: "/graph", methods: map[string]http.HandlerFunc{"POST": s.writable(s.loadGraph), "GET": s.graphInfo}},
		{path: "/patterns", methods: map[string]http.HandlerFunc{"GET": s.listPatterns}},
		{path: "/patterns/{id}", methods: map[string]http.HandlerFunc{
			"PUT": s.writable(s.register), "GET": s.patternDef, "DELETE": s.writable(s.unregister)}},
		{path: "/patterns/{id}/result", methods: map[string]http.HandlerFunc{"GET": s.result}},
		{path: "/patterns/{id}/stream", methods: map[string]http.HandlerFunc{"GET": s.stream}},
		{path: "/updates", methods: map[string]http.HandlerFunc{"POST": s.writable(s.updates)}},
		{path: "/commits", methods: map[string]http.HandlerFunc{"GET": s.commits}},
		{path: "/commits/stream", methods: map[string]http.HandlerFunc{"GET": s.commitStream}},
		{path: "/snapshot", methods: map[string]http.HandlerFunc{"GET": s.snapshot}},
		{path: "/stats", methods: map[string]http.HandlerFunc{"GET": s.stats}},
		{path: "/metricz", methods: map[string]http.HandlerFunc{"GET": s.metricz}},
		{path: "/tracez", methods: map[string]http.HandlerFunc{"GET": s.tracez}},
		{path: "/healthz", methods: map[string]http.HandlerFunc{"GET": s.healthz}},
		{path: "/readyz", methods: map[string]http.HandlerFunc{"GET": s.readyz}},
	}
	for _, rt := range routes {
		for m, h := range rt.methods {
			mux.HandleFunc(m+" /v1"+rt.path, h)
		}
		mux.HandleFunc("/v1"+rt.path, methodNotAllowed(rt.methods))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, http.StatusNotFound, CodeNotFound, fmt.Errorf("no route %s", r.URL.Path))
	})
	s.mux = mux
}

// writable guards a mutating route: on a read-only (follower) server the
// request is rejected with a 403 read_only envelope whose leader field
// names the instance that accepts writes — clients redirect mechanically.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	if !s.readOnly {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		body := ErrorBody{
			Code:    CodeReadOnly,
			Message: fmt.Sprintf("this instance is a read-only follower; write to the leader at %s", s.leader),
			Leader:  s.leader,
		}
		if sc := trace.FromContext(r.Context()); sc.Valid() {
			body.TraceID = sc.TraceID.String()
		}
		writeJSON(w, http.StatusForbidden, body)
	}
}

// methodNotAllowed answers a known path with the wrong method: a 405
// envelope plus the Allow header (the mux only reaches this fallback when
// no method-specific pattern matched).
func methodNotAllowed(methods map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(methods))
	for m := range methods {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Errorf("method %s not allowed (allow: %s)", r.Method, allow))
	}
}

// registryOpts is the option set for a fresh registry: the caller's
// options plus the server's journal.
func (s *Server) registryOpts() []contq.Option {
	opts := make([]contq.Option, 0, len(s.opts)+1)
	opts = append(opts, s.opts...)
	return append(opts, contq.WithJournal(s.journal))
}

// ServeHTTP implements http.Handler. An incoming W3C traceparent header
// is parsed into the request context here, once, so every handler —
// ingest, streams, error envelopes — sees the caller's span context.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if sc, ok := trace.Parse(r.Header.Get("traceparent")); ok {
		r = r.WithContext(trace.NewContext(r.Context(), sc))
	}
	s.mux.ServeHTTP(w, r)
}

// registry returns the current registry under the swap lock.
func (s *Server) registry() *contq.Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reg
}

// Journal returns the server's journal (never nil; memory-only for New).
func (s *Server) Journal() *journal.Journal {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.journal
}

// Registry returns the server's current registry — for in-process
// embedding and startup introspection. POST /v1/graph swaps it; re-read
// rather than retain.
func (s *Server) Registry() *contq.Registry { return s.registry() }

// Close shuts the underlying registry down, ending all streams and
// flushing the journal. The journal itself stays open — its owner closes
// it after the HTTP server has drained.
func (s *Server) Close() { s.registry().Close() }

// LoadGraph installs g behind a fresh registry — the in-process
// equivalent of POST /v1/graph. The server takes ownership of g; all
// previously registered patterns and streams are dropped, and the
// journal is reset to a new world starting at g (for durable journals,
// the old history is deleted and g is checkpointed at seq 0).
func (s *Server) LoadGraph(g *graph.Graph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Close the old registry first: it drains any in-flight commit, so no
	// stale append can land in the journal after the reset below.
	s.reg.Close()
	if err := s.journal.Reset(g); err != nil {
		// The old registry is gone; install the new one anyway so the
		// server stays consistent — the journal failure is surfaced.
		s.reg = contq.New(g, s.registryOpts()...)
		return err
	}
	s.reg = contq.New(g, s.registryOpts()...)
	return nil
}

// loadGraph installs a freshly parsed graph behind a new registry,
// dropping all registered patterns and subscriptions (standing queries are
// defined against one graph; a new graph is a new world).
func (s *Server) loadGraph(w http.ResponseWriter, r *http.Request) {
	g, err := readGraphBody(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidGraph, err)
		return
	}
	if err := s.LoadGraph(g); err != nil {
		writeError(w, r, http.StatusInternalServerError, CodeInternal,
			fmt.Errorf("graph loaded but journal reset failed: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": g.NumNodes(), "edges": g.NumEdges()})
}

func (s *Server) graphInfo(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	nodes, edges, seq := reg.GraphInfo()
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes": nodes, "edges": edges, "seq": seq, "patterns": len(reg.Patterns()),
	})
}

// stats reports the registry snapshot: pattern count, committed sequence,
// shared-graph size and the writer's cumulative coalescing counters. On a
// follower, the replication state rides along under "follower".
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	extra := s.statsExtra
	s.mu.RUnlock()
	doc := struct {
		contq.Stats
		Build    BuildInfo `json:"build"`
		Follower any       `json:"follower,omitempty"`
	}{Stats: s.registry().Stats(), Build: ReadBuildInfo()}
	if extra != nil {
		doc.Follower = extra()
	}
	writeJSON(w, http.StatusOK, doc)
}

// healthz is the liveness probe: the process is up and serving HTTP.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// readyz is the readiness probe: the registry accepts writes and the
// journal accepts appends. A closed registry (shutdown in progress), a
// broken journal (sticky append failure: commits would apply in memory
// but stop being durable or replayable), or a failing follower ready
// check (bootstrapping, or lag beyond the bound) answers 503, telling
// orchestrators and followers to route around this instance.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	check := s.readyCheck
	s.mu.RUnlock()
	if check != nil {
		if err := check(); err != nil {
			writeError(w, r, http.StatusServiceUnavailable, CodeNotReady, err)
			return
		}
	}
	if s.registry().Closed() {
		writeError(w, r, http.StatusServiceUnavailable, CodeNotReady, errors.New("registry closed"))
		return
	}
	if err := s.Journal().Broken(); err != nil {
		writeError(w, r, http.StatusServiceUnavailable, CodeNotReady,
			fmt.Errorf("journal not accepting appends: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "seq": s.registry().Seq()})
}

func (s *Server) register(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p, err := readPatternBody(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidPattern, err)
		return
	}
	kind := contq.Kind(r.URL.Query().Get("kind"))
	if kind == "" {
		kind = contq.KindAuto
	}
	reg := s.registry()
	if err := reg.Register(id, p, kind); err != nil {
		status, code := classify(err, http.StatusBadRequest, CodeInvalidPattern)
		writeError(w, r, status, code, err)
		return
	}
	// Echo the kind the registry resolved (auto → sim/bsim), so clients
	// learn the backing engine without a second round trip.
	if resolved, ok := reg.Kind(id); ok {
		kind = resolved
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id": id, "kind": kind, "nodes": p.NumNodes(), "edges": p.NumEdges(),
	})
}

func (s *Server) listPatterns(w http.ResponseWriter, r *http.Request) {
	infos := s.registry().Patterns()
	out := make([]map[string]any, 0, len(infos))
	for _, in := range infos {
		out = append(out, map[string]any{
			"id": in.ID, "kind": in.Kind, "nodes": in.Nodes, "edges": in.Edges,
			"subscribers": in.Subscribers, "result_size": in.ResultSize,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"patterns": out})
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	id := r.PathValue("id")
	res, ok := reg.Result(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, fmt.Errorf("pattern %q not registered", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "seq": reg.Seq(), "size": res.Size(), "pairs": pairsOrEmpty(res.Pairs()),
	})
}

func (s *Server) unregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.registry().Unregister(id) {
		writeError(w, r, http.StatusNotFound, CodeNotFound, fmt.Errorf("pattern %q not registered", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "unregistered": true})
}

func (s *Server) updates(w http.ResponseWriter, r *http.Request) {
	ups, err := readUpdatesBody(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidUpdates, err)
		return
	}
	reg := s.registry()
	// The ingest span covers the HTTP half of the write: body parsed →
	// response written. It continues the caller's trace when the request
	// carried a sampled traceparent, otherwise the tracer's mode decides
	// whether a fresh trace starts here.
	tr := reg.Tracer()
	var ingest *trace.Span
	if sc := trace.FromContext(r.Context()); sc.Valid() {
		ingest = tr.StartSpan(sc, "http.ingest")
	} else {
		ingest = tr.StartRoot("http.ingest")
	}
	ingest.SetAttr("updates", len(ups))
	defer ingest.End()
	ctx := trace.NewContext(r.Context(), ingest.Context())
	r = r.WithContext(ctx)
	seq, err := reg.ApplyContext(ctx, ups)
	if err != nil {
		ingest.SetAttr("error", err.Error())
		// seq != 0 means the batch WAS committed and published but a
		// server-side step after it failed (journal append): that is a
		// 5xx carrying the assigned seq, not a rejected request — a 4xx
		// would tell the client its state diverged when it did not.
		if seq != 0 {
			ingest.SetSeq(seq)
			body := ErrorBody{Code: CodeJournalFailed, Message: err.Error(), Seq: seq}
			if sc := trace.FromContext(ctx); sc.Valid() {
				body.TraceID = sc.TraceID.String()
			}
			writeJSON(w, http.StatusInternalServerError, body)
			return
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return // the client is gone; nobody reads this response
		}
		status, code := classify(err, http.StatusBadRequest, CodeInvalidUpdates)
		writeError(w, r, status, code, err)
		return
	}
	ingest.SetSeq(seq)
	writeJSON(w, http.StatusOK, map[string]any{"seq": seq, "updates": len(ups)})
}

// streamFrame is one rendered stream event: the SSE event name, the commit
// sequence sent as the SSE id (so clients resume via Last-Event-ID) and the
// JSON data document. at and trace are the producing commit's publish
// timestamp and traceparent (zero for opening frames and backfilled
// events); deliver adds them to doc. span is the attribute naming the
// stream on the sse.deliver span.
type streamFrame struct {
	event string
	seq   uint64
	doc   map[string]any
	at    time.Time
	trace string
	span  [2]string
}

// write sends the frame and flushes it.
func (f streamFrame) write(w http.ResponseWriter, fl http.Flusher) error {
	data, err := json.Marshal(f.doc)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", f.event, f.seq, data); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// sseRequest checks what every stream route needs before it subscribes —
// a flushable connection and a well-formed resume point — answering the
// error envelope itself when ok is false.
//
// The standard Last-Event-ID header wins over ?from=N: an EventSource
// opened with ?from= keeps the stale query parameter on every
// auto-reconnect but sends the up-to-date header, and honoring the query
// would replay already-delivered events. resume reports whether a resume
// was requested.
func sseRequest(w http.ResponseWriter, r *http.Request) (fl http.Flusher, from uint64, resume, ok bool) {
	fl, ok = w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, CodeInternal, fmt.Errorf("streaming unsupported"))
		return nil, 0, false, false
	}
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("from")
	}
	if raw == "" {
		return fl, 0, false, true
	}
	from, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalidSeq, fmt.Errorf("bad resume seq %q: %w", raw, err))
		return nil, 0, false, false
	}
	return fl, from, true, true
}

// deliver is the SSE delivery loop behind both stream routes: response
// headers, the optional opening frame, then one frame per event off the
// subscription channel until the client goes away (the request context
// is honored end to end) or the channel closes — pattern unregistered,
// registry swapped out, or server closing.
func deliver[E any](w http.ResponseWriter, r *http.Request, fl http.Flusher, reg *contq.Registry,
	opening *streamFrame, events <-chan E, render func(E) streamFrame) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Push the headers out now: a resumed ΔM stream sends no opening
	// frame, and without this flush a reconnecting client would sit in
	// CONNECTING until the next commit produced its first event.
	fl.Flush()
	if opening != nil {
		if err := opening.write(w, fl); err != nil {
			return
		}
	}
	// Event age at delivery: publish timestamp → this handler draining it,
	// the lag a slow consumer (or a deep mailbox) adds on top of commit
	// latency. Backfilled events carry no timestamp and are skipped.
	eventAge := reg.Metrics().Histogram("gpm_sse_event_age_ms",
		"Age of a stream event when the SSE handler delivers it, publish to write, in milliseconds.", nil)
	tr := reg.Tracer()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			f := render(ev)
			if f.trace != "" {
				f.doc["trace"] = f.trace
			}
			// The delivery span hangs the SSE write off the commit span that
			// produced the event: its start is the publish timestamp, so its
			// duration IS the event's age at delivery. Backfilled events
			// (zero at) are historical and get no span.
			var ds *trace.Span
			if !f.at.IsZero() {
				eventAge.ObserveSince(f.at)
				f.doc["at"] = f.at.UnixNano()
				if sc, ok := trace.Parse(f.trace); ok {
					ds = tr.StartSpanAt(sc, "sse.deliver", f.at)
					ds.SetAttr(f.span[0], f.span[1])
				}
			}
			err := f.write(w, fl)
			ds.End()
			if err != nil {
				return
			}
		}
	}
}

// stream serves the match-delta subscription over SSE: one "snapshot"
// event carrying the full result and its commit sequence, then one
// "delta" event per commit, in commit order, until the client disconnects
// or the pattern is unregistered.
//
// A client reconnecting with Last-Event-ID: N (or ?from=N) resumes
// instead: no snapshot is re-sent, and delivery begins at seq N+1 with
// the missed deltas backfilled from the registry's journal. When the
// journal no longer retains the range (compacted, or the seq is ahead of
// a recovered head), the server falls back to the snapshot path — the
// client detects this by receiving a "snapshot" event and rebases. A
// canceled client tears the subscription down even while the resume
// backfill is still replaying.
func (s *Server) stream(w http.ResponseWriter, r *http.Request) {
	fl, from, resume, ok := sseRequest(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	ctx := r.Context()
	reg := s.registry()
	var opts []contq.SubscribeOption
	if resume {
		opts = append(opts, contq.FromSeq(from))
	}
	sub, err := reg.SubscribeContext(ctx, id, opts...)
	if resume && err != nil && !errors.Is(err, contq.ErrNotRegistered) &&
		!errors.Is(err, contq.ErrClosed) && ctx.Err() == nil {
		// Unresumable (journal compacted, seq ahead of a recovered
		// head): fall back to a fresh snapshot subscription.
		resume = false
		sub, err = reg.SubscribeContext(ctx, id)
	}
	if err != nil {
		status, code := classify(err, http.StatusInternalServerError, CodeInternal)
		writeError(w, r, status, code, err)
		return
	}
	defer sub.Cancel()
	var opening *streamFrame
	if !resume {
		opening = &streamFrame{event: "snapshot", seq: sub.Seq, doc: map[string]any{
			"id": id, "seq": sub.Seq, "size": sub.Snapshot.Size(), "pairs": pairsOrEmpty(sub.Snapshot.Pairs()),
		}}
	}
	deliver(w, r, fl, reg, opening, sub.C, func(ev contq.Event) streamFrame {
		return streamFrame{event: "delta", seq: ev.Seq, at: ev.At, trace: ev.Trace, span: [2]string{"pattern", ev.Pattern},
			doc: map[string]any{
				"id": ev.Pattern, "seq": ev.Seq,
				"added": pairsOrEmpty(ev.Delta.Added), "removed": pairsOrEmpty(ev.Delta.Removed),
			}}
	})
}

// commits serves the raw ΔG tail: every committed net update batch with
// seq > from, for consumers that follow the graph itself rather than a
// pattern's match (bootstrapping a follower, audit, change-data capture).
func (s *Server) commits(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, CodeInvalidSeq, fmt.Errorf("bad from seq %q: %w", raw, err))
			return
		}
		from = v
	}
	reg := s.registry()
	recs, err := reg.Replay(from)
	if err != nil {
		status, code := classify(err, http.StatusInternalServerError, CodeInternal)
		writeError(w, r, status, code, err)
		return
	}
	out := make([]map[string]any, 0, len(recs))
	for _, rec := range recs {
		m := map[string]any{"seq": rec.Seq, "updates": updatesOrEmpty(rec.Updates)}
		if rec.Trace != "" {
			m["trace"] = rec.Trace
		}
		out = append(out, m)
	}
	writeJSON(w, http.StatusOK, map[string]any{"from": from, "head": reg.Seq(), "commits": out})
}

// snapshot serves a consistent full-state export: the canonical graph (as
// its JSON wire document), the commit sequence it reflects, and every
// registered pattern's portable definition — what a follower bootstraps
// from when the commit tail it needs is already compacted.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	g, seq, defs := s.registry().Export()
	pats := make([]map[string]any, 0, len(defs))
	for _, pd := range defs {
		pats = append(pats, map[string]any{
			"id": pd.ID, "kind": pd.Kind, "def": string(pd.Def), "reg_seq": pd.RegSeq,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"seq": seq, "graph": g, "patterns": pats})
}

// patternDef serves one pattern's portable definition (its text-format
// source, kind, and registration sequence) — how a follower's reconciler
// mirrors a pattern it learned about from the leader's /v1/patterns list.
func (s *Server) patternDef(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	pd, ok := s.registry().PatternDef(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, CodeNotFound, fmt.Errorf("pattern %q not registered", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": pd.ID, "kind": pd.Kind, "def": string(pd.Def), "reg_seq": pd.RegSeq,
	})
}

// commitStream serves the raw ΔG tail over SSE: one "head" frame naming
// the sequence the stream starts after, then one "commit" frame per
// committed batch — empty ones included, so the consumer's sequence stays
// aligned with the leader's. With Last-Event-ID: N (or ?from=N) the
// commits in (N, head] are backfilled from the journal ahead of the live
// feed, one seq-contiguous stream. A range the journal no longer retains
// answers 410 compacted before any frame is written — the signal to
// re-bootstrap from /v1/snapshot.
func (s *Server) commitStream(w http.ResponseWriter, r *http.Request) {
	fl, from, resume, ok := sseRequest(w, r)
	if !ok {
		return
	}
	reg := s.registry()
	var opts []contq.SubscribeOption
	if resume {
		opts = append(opts, contq.FromSeq(from))
	}
	sub, err := reg.SubscribeCommitsContext(r.Context(), opts...)
	if err != nil {
		status, code := classify(err, http.StatusInternalServerError, CodeInternal)
		writeError(w, r, status, code, err)
		return
	}
	defer sub.Cancel()
	// The head frame tells a fresh consumer where the stream starts: its
	// id seeds Last-Event-ID, so even an eventless disconnect resumes
	// correctly.
	head := &streamFrame{event: "head", seq: sub.Seq, doc: map[string]any{"seq": sub.Seq}}
	deliver(w, r, fl, reg, head, sub.C, func(ev contq.CommitEvent) streamFrame {
		return streamFrame{event: "commit", seq: ev.Seq, at: ev.At, trace: ev.Trace, span: [2]string{"stream", "commits"},
			doc: map[string]any{"seq": ev.Seq, "updates": updatesOrEmpty(ev.Updates)}}
	})
}
