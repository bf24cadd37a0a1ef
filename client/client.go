// Package client is the typed Go SDK for gpserve's v1 wire API: the
// continuous-query server behind cmd/gpserve (and any embedding of
// internal/serve). It covers every endpoint — graph loading, standing
// pattern registration, update ingestion, results, raw commit tails,
// stats, health — plus Stream, a match-delta subscription that delivers
// typed events on a channel and transparently survives disconnects and
// server restarts by resuming with the SSE Last-Event-ID contract.
//
// Every method takes a context.Context and returns promptly when it is
// canceled. Server-side failures are returned as *APIError carrying the
// wire envelope's stable machine-readable code.
//
// A minimal session:
//
//	c := client.New("http://localhost:8080")
//	c.LoadGraph(ctx, g)
//	c.Register(ctx, "watch", p, gpm.KindAuto)
//	st, _ := c.Stream(ctx, "watch")
//	go func() {
//		for ev := range st.C {
//			fmt.Println(ev.Type, ev.Seq, ev.Added, ev.Removed)
//		}
//	}()
//	c.Apply(ctx, []gpm.Update{gpm.Insert(3, 7)})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"gpm"
	"gpm/internal/obs/trace"
)

// Client talks to one gpserve instance. Construct with New; the zero
// value is not usable. Clients are safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	tracer     *trace.Tracer // client-side spans (off by default)
	backoffMin time.Duration // Stream reconnect backoff floor
	backoffMax time.Duration // ... and ceiling
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default is a dedicated client with no
// global timeout — streams are long-lived; bound individual calls with
// their contexts.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTracer records client-side spans into t: Apply opens a root span
// when its context carries none (so a bare Apply still starts a trace the
// server continues), and Stream/CommitStream close each event's delivery
// span — its duration is the event's age when the consumer receives it.
// The default tracer is off: the client then only forwards traceparents
// it finds in call contexts, recording nothing itself.
func WithTracer(t *trace.Tracer) Option {
	return func(c *Client) {
		if t != nil {
			c.tracer = t
		}
	}
}

// Tracer returns the client's tracer (never nil; off unless WithTracer).
func (c *Client) Tracer() *trace.Tracer { return c.tracer }

// WithBackoff bounds Stream's reconnect backoff (default 100ms..5s,
// doubling per consecutive failure, reset by a successful connection).
func WithBackoff(min, max time.Duration) Option {
	return func(c *Client) {
		if min > 0 {
			c.backoffMin = min
		}
		if max >= c.backoffMin {
			c.backoffMax = max
		}
	}
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"); a trailing slash is tolerated.
func New(baseURL string, options ...Option) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	c := &Client{
		base:       baseURL,
		hc:         &http.Client{},
		tracer:     trace.Default(),
		backoffMin: 100 * time.Millisecond,
		backoffMax: 5 * time.Second,
	}
	for _, o := range options {
		o(c)
	}
	return c
}

// APIError is a non-2xx response from the server: the HTTP status plus
// the v1 error envelope, the document every failing route encodes. Code
// is the stable machine-readable contract — switch on it, not on Message.
// Seq is nonzero only for code "journal_failed": the batch WAS committed
// at that sequence but is not durable.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Seq     uint64 `json:"seq,omitempty"`
	// Leader is set on code "read_only": the base URL of the instance
	// that accepts writes (this one is a follower).
	Leader string `json:"leader,omitempty"`
	// TraceID joins the failure to its server-side trace (/v1/tracez)
	// when the request carried (or was assigned) a sampled trace; ""
	// otherwise.
	TraceID string `json:"trace_id,omitempty"`
}

func (e *APIError) Error() string {
	if e.Seq != 0 {
		return fmt.Sprintf("gpserve: %s (http %d, seq %d): %s", e.Code, e.Status, e.Seq, e.Message)
	}
	return fmt.Sprintf("gpserve: %s (http %d): %s", e.Code, e.Status, e.Message)
}

// The envelope codes of the v1 wire contract: the server answers with
// exactly these, and callers switch on APIError.Code against them.
const (
	// CodeInvalidGraph, CodeInvalidPattern and CodeInvalidUpdates report
	// an unparseable or invalid request document (text or JSON).
	CodeInvalidGraph   = "invalid_graph"
	CodeInvalidPattern = "invalid_pattern"
	CodeInvalidUpdates = "invalid_updates"
	// CodeInvalidKind reports an unknown ?kind= or a kind the pattern
	// cannot back.
	CodeInvalidKind = "invalid_kind"
	// CodeInvalidSeq reports an unparseable ?from= or Last-Event-ID.
	CodeInvalidSeq = "invalid_seq"
	// CodeNotFound reports an unregistered pattern id (or unknown route).
	CodeNotFound = "not_found"
	// CodeAlreadyRegistered reports a duplicate pattern id; retry under
	// another name.
	CodeAlreadyRegistered = "already_registered"
	// CodeClosed reports a registry shutting down; retry against a live
	// instance.
	CodeClosed = "closed"
	// CodeCompacted reports a replay range the journal no longer retains;
	// resync from a snapshot.
	CodeCompacted = "compacted"
	// CodeSeqFuture reports a resume sequence ahead of the head; the
	// client's state diverged — resync.
	CodeSeqFuture = "seq_future"
	// CodeMethodNotAllowed reports a known route with the wrong method;
	// the Allow header lists the methods the route accepts.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotReady is /v1/readyz's failure: the registry is closed, the
	// journal stopped accepting appends, or a follower is bootstrapping or
	// lagging beyond its bound.
	CodeNotReady = "not_ready"
	// CodeReadOnly reports a write against a follower; the envelope's
	// leader field names the instance that accepts writes.
	CodeReadOnly = "read_only"
	// CodeJournalFailed reports a commit that was applied and published
	// but could not be journaled — the envelope's seq carries the
	// assigned sequence number; the state stands in memory but is not
	// durable.
	CodeJournalFailed = "journal_failed"
	// CodeInternal is the residual server-side failure.
	CodeInternal = "internal"
)

// ErrCompacted is the typed terminal condition behind code "compacted":
// the server's journal no longer retains the commit range the caller
// needs, and no snapshot rebase is possible on this endpoint. Streams end
// with an error wrapping it (errors.Is(st.Err(), ErrCompacted)), the
// signal to re-sync from GET /v1/snapshot instead of reconnecting.
var ErrCompacted = errors.New("client: commit history compacted; re-sync from a snapshot")

// terminalErr types a terminal stream error: a compacted envelope is
// wrapped in ErrCompacted so callers can switch on it with errors.Is.
func terminalErr(err error) error {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Code == CodeCompacted {
		return fmt.Errorf("%w: %w", ErrCompacted, err)
	}
	return err
}

// apiError decodes the error envelope of a non-2xx response.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	e := &APIError{}
	if err := json.Unmarshal(body, e); err != nil || e.Code == "" {
		e = &APIError{Code: CodeInternal, Message: string(bytes.TrimSpace(body))}
	}
	e.Status = resp.StatusCode
	return e
}

// do runs one JSON round trip: marshal in (when non-nil) as the request
// body, decode the response into out (when non-nil). Errors are ctx
// errors, transport errors, or *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// A span context in the call context rides along as the W3C
	// traceparent header — the single injection point for every endpoint.
	if sc := trace.FromContext(ctx); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// The reply documents of the v1 wire contract. The server encodes each
// reply from the type the client decodes it into; empty lists encode as
// [] (never null).

// GraphInfo is GET /v1/graph's response: the canonical graph's size,
// commit head and pattern count. POST /v1/graph answers it too, with Seq
// and Patterns 0 — a new world.
type GraphInfo struct {
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Seq      uint64 `json:"seq"`
	Patterns int    `json:"patterns"`
}

// PatternInfo describes one registered standing pattern: PUT
// /v1/patterns/{id}'s response and one element of GET /v1/patterns'.
type PatternInfo struct {
	ID          string         `json:"id"`
	Kind        gpm.EngineKind `json:"kind"`
	Nodes       int            `json:"nodes"`
	Edges       int            `json:"edges"`
	Subscribers int            `json:"subscribers"`
	ResultSize  int            `json:"result_size"`
}

// PatternList is GET /v1/patterns' response.
type PatternList struct {
	Patterns []PatternInfo `json:"patterns"`
}

// Result is one pattern's match relation at a commit sequence: GET
// /v1/patterns/{id}/result's response, and the data of a stream's
// snapshot frame.
type Result struct {
	ID    string     `json:"id"`
	Seq   uint64     `json:"seq"`
	Size  int        `json:"size"`
	Pairs []gpm.Pair `json:"pairs"`
}

// ApplyResult is POST /v1/updates' response: the commit's sequence and
// the number of updates the batch carried.
type ApplyResult struct {
	Seq     uint64 `json:"seq"`
	Updates int    `json:"updates"`
}

// Commit is one committed net update batch of the raw ΔG tail. Trace is
// the commit span's W3C traceparent ("" when the commit was unsampled) —
// what a follower hands to ApplyReplicated so one trace spans nodes.
type Commit struct {
	Seq     uint64       `json:"seq"`
	Updates []gpm.Update `json:"updates"`
	Trace   string       `json:"trace,omitempty"`
}

// CommitTail is GET /v1/commits' response: the committed batches with
// sequence in (From, Head].
type CommitTail struct {
	From    uint64   `json:"from"`
	Head    uint64   `json:"head"`
	Commits []Commit `json:"commits"`
}

// deliverSpan opens the client-side delivery span for one streamed event:
// parented on the commit span named by tp, starting at the server-side
// publish timestamp, so its duration is the event's age when the consumer
// receives it. Nil (a no-op) for unsampled or backfilled events.
func (c *Client) deliverSpan(tp string, at time.Time, key, val string) *trace.Span {
	if at.IsZero() {
		return nil
	}
	sc, ok := trace.Parse(tp)
	if !ok {
		return nil
	}
	sp := c.tracer.StartSpanAt(sc, "client.deliver", at)
	sp.SetAttr(key, val)
	return sp
}

// LoadGraph installs g as the server's canonical graph — a new world: all
// standing patterns and streams are dropped and the commit sequence
// restarts at 0.
func (c *Client) LoadGraph(ctx context.Context, g *gpm.Graph) (GraphInfo, error) {
	var out GraphInfo
	err := c.do(ctx, http.MethodPost, "/v1/graph", g, &out)
	return out, err
}

// GraphInfo reports the canonical graph's size, commit head and pattern
// count.
func (c *Client) GraphInfo(ctx context.Context) (GraphInfo, error) {
	var out GraphInfo
	err := c.do(ctx, http.MethodGet, "/v1/graph", nil, &out)
	return out, err
}

// Register installs p as a standing pattern under id, backed by the
// engine for kind (gpm.KindAuto picks one from the pattern's shape).
// The returned PatternInfo carries the kind the server resolved — never
// "auto".
func (c *Client) Register(ctx context.Context, id string, p *gpm.Pattern, kind gpm.EngineKind) (PatternInfo, error) {
	out := PatternInfo{ID: id, Kind: kind} // overwritten by the response's resolved kind
	path := "/v1/patterns/" + url.PathEscape(id)
	if kind != "" {
		path += "?kind=" + url.QueryEscape(string(kind))
	}
	err := c.do(ctx, http.MethodPut, path, p, &out)
	return out, err
}

// Unregister removes a standing pattern, closing its streams.
func (c *Client) Unregister(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/patterns/"+url.PathEscape(id), nil, nil)
}

// Patterns lists the registered standing patterns.
func (c *Client) Patterns(ctx context.Context) ([]PatternInfo, error) {
	var out PatternList
	err := c.do(ctx, http.MethodGet, "/v1/patterns", nil, &out)
	return out.Patterns, err
}

// Result fetches pattern id's current match relation.
func (c *Client) Result(ctx context.Context, id string) (Result, error) {
	var out Result
	err := c.do(ctx, http.MethodGet, "/v1/patterns/"+url.PathEscape(id)+"/result", nil, &out)
	return out, err
}

// Apply commits one batch of edge updates and returns the commit's
// sequence number. An *APIError with code "journal_failed" means the
// batch WAS committed (at the error's Seq) but is not durable.
//
// When the context carries no span and the client's tracer samples (see
// WithTracer), Apply opens a root span — the trace the server's ingest,
// commit pipeline, SSE delivery and any follower's replicated apply all
// hang off. A span already in ctx is forwarded instead, untouched.
func (c *Client) Apply(ctx context.Context, ups []gpm.Update) (uint64, error) {
	if ups == nil {
		ups = []gpm.Update{} // an empty batch is valid; null is not a batch
	}
	var sp *trace.Span
	if !trace.FromContext(ctx).Valid() {
		if sp = c.tracer.StartRoot("client.apply"); sp != nil {
			sp.SetAttr("updates", len(ups))
			ctx = trace.NewContext(ctx, sp.Context())
			defer sp.End()
		}
	}
	var out ApplyResult
	err := c.do(ctx, http.MethodPost, "/v1/updates", ups, &out)
	if err == nil {
		sp.SetSeq(out.Seq)
	}
	return out.Seq, err
}

// Commits fetches the raw ΔG tail after sequence from — every committed
// net batch a consumer at from has missed. Code "compacted" (HTTP 410)
// means the journal no longer retains the range: resync from a snapshot.
func (c *Client) Commits(ctx context.Context, from uint64) (CommitTail, error) {
	var out CommitTail
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/commits?from=%d", from), nil, &out)
	return out, err
}

// Stats fetches the registry, journal and shared-network statistics. The
// Network field (non-nil unless the server disabled the shared evaluation
// network) reports how much state structurally-overlapping standing
// patterns share and how many per-pattern repairs that sharing saved.
func (c *Client) Stats(ctx context.Context) (gpm.RegistryStats, error) {
	var out gpm.RegistryStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// PatternDef is one standing pattern's portable definition — GET
// /v1/patterns/{id}'s response: its id, the resolved engine kind, the
// pattern source in the text wire format, and the commit sequence it was
// registered at.
type PatternDef struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Def    string `json:"def"`
	RegSeq uint64 `json:"reg_seq"`
}

// Snapshot is GET /v1/snapshot's response: a consistent full-state export
// — the canonical graph, the commit sequence it reflects, and every
// registered pattern's definition. A follower bootstraps from it when the
// commit tail it needs is compacted.
type Snapshot struct {
	Seq      uint64       `json:"seq"`
	Graph    *gpm.Graph   `json:"graph"`
	Patterns []PatternDef `json:"patterns"`
}

// Snapshot fetches a consistent full-state export of the server.
func (c *Client) Snapshot(ctx context.Context) (Snapshot, error) {
	out := Snapshot{Graph: gpm.NewGraph()}
	err := c.do(ctx, http.MethodGet, "/v1/snapshot", nil, &out)
	return out, err
}

// PatternDef fetches one standing pattern's portable definition.
func (c *Client) PatternDef(ctx context.Context, id string) (PatternDef, error) {
	var out PatternDef
	err := c.do(ctx, http.MethodGet, "/v1/patterns/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Healthz probes liveness; nil means the server is up.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Readyz probes readiness; nil means the registry accepts writes and the
// journal accepts appends (an *APIError with code "not_ready" otherwise).
func (c *Client) Readyz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/readyz", nil, nil)
}
