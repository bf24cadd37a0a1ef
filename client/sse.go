package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the reconnecting SSE consumer behind both Stream (ΔM) and
// CommitStream (ΔG): connect with Last-Event-ID, read frames, deliver
// each sequence once, reconnect with exponential backoff. The two differ
// only in the URL they open and in how a frame decodes.

// StreamOption configures a Stream or CommitStream call.
type StreamOption func(*streamOpts)

type streamOpts struct {
	fromSeq uint64
	hasFrom bool
}

// FromSeq resumes the stream from commit sequence n: the caller already
// holds the state as of n, so delivery starts at n+1 (backfilled from the
// server's journal). On Stream no snapshot is sent; if the server no
// longer retains the range it falls back to a snapshot event — handle
// EventSnapshot by rebasing.
func FromSeq(n uint64) StreamOption {
	return func(o *streamOpts) { o.fromSeq = n; o.hasFrom = true }
}

// StreamStats is a point-in-time view of the stream's reconnect machinery
// — how hard the stream is working to stay connected, invisible on C by
// design. Read it via Stats.
type StreamStats struct {
	// Attempts counts connection attempts, including the initial connect
	// and every reconnect try; Connects counts the ones that reached an
	// open SSE stream.
	Attempts uint64 `json:"attempts"`
	Connects uint64 `json:"connects"`
	// Disconnects counts open connections that later dropped (server
	// restart, network). Attempts - Connects is the failed-try count.
	Disconnects uint64 `json:"disconnects"`
	// EventsDelivered counts events delivered on C (after dedup);
	// LastSeq is the newest delivered sequence.
	EventsDelivered uint64 `json:"events_delivered"`
	LastSeq         uint64 `json:"last_seq"`
	// Connected reports whether an SSE connection is open right now.
	Connected bool `json:"connected"`
	// CurrentBackoff is the delay before the next reconnect attempt while
	// disconnected (the floor once a connection delivers again).
	CurrentBackoff time.Duration `json:"current_backoff"`
	// LastDisconnect is the cause of the most recent drop or failed
	// attempt ("" while none has happened); LastDisconnectAt stamps it.
	LastDisconnect   string    `json:"last_disconnect,omitempty"`
	LastDisconnectAt time.Time `json:"last_disconnect_at,omitzero"`
}

// frameKind is how a decoded frame moves the resume cursor.
type frameKind int

const (
	// frameCommit is one commit's event: delivered only when its seq is
	// past the cursor (the dedup that makes reconnect overlap invisible).
	frameCommit frameKind = iota
	// frameRebase carries the full state at its seq (a snapshot): always
	// delivered, and the cursor jumps to it — on first connect it is the
	// starting state, on reconnect the server's signal that it could not
	// backfill from our cursor.
	frameRebase
	// frameStart names where a connection starts (a head): it seeds an
	// unset cursor and is delivered once per connection, first (on a
	// reconnect its seq echoes the cursor).
	frameStart
	// framePattern is state beside the commits (the pattern set): always
	// delivered, the cursor stays.
	framePattern
)

// sseFrame is one decoded SSE frame. trace and at are the producing
// commit's traceparent and publish timestamp (zero when absent).
type sseFrame[E any] struct {
	ev    E
	kind  frameKind
	seq   uint64
	trace string
	at    time.Time
}

// decodeFrame decodes one frame's JSON data into doc; a malformed
// document is a protocol violation.
func decodeFrame(event, data string, doc any) error {
	if err := json.Unmarshal([]byte(data), doc); err != nil {
		return fmt.Errorf("client: bad %s frame: %w", event, err)
	}
	return nil
}

// unixNano converts a frame's publish time (0 when absent).
func unixNano(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// sseStream is the reconnect state machine behind one stream; Stream and
// CommitStream embed it for Stats, Err and Close.
type sseStream[E any] struct {
	c   *Client
	url string
	// decode turns one SSE frame into a typed event; ok false ignores the
	// frame (unknown event types: forward compatibility), an error is a
	// protocol violation that ends the stream.
	decode   func(event, data string) (f sseFrame[E], ok bool, err error)
	spanAttr [2]string // names the stream on client.deliver spans
	ch       chan E

	cancel context.CancelFunc
	done   chan struct{}

	// The resume cursor, owned by the run goroutine.
	lastSeq   uint64 // newest delivered (or resumed-from) sequence
	haveSeq   bool   // lastSeq is meaningful: resume from it
	startSeen bool   // this connection's frameStart frame was delivered

	mu    sync.Mutex
	err   error
	stats StreamStats
}

// openSSE starts a stream. The first connection is established
// synchronously, so an immediately-broken subscription fails here rather
// than on the channel.
func openSSE[E any](ctx context.Context, c *Client, url string, spanAttr [2]string, options []StreamOption,
	decode func(event, data string) (sseFrame[E], bool, error)) (*sseStream[E], error) {
	var o streamOpts
	for _, opt := range options {
		opt(&o)
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &sseStream[E]{
		c: c, url: url, decode: decode, spanAttr: spanAttr, ch: make(chan E),
		cancel: cancel, done: make(chan struct{}),
		lastSeq: o.fromSeq, haveSeq: o.hasFrom,
	}
	s.stats.CurrentBackoff = c.backoffMin
	// Fail fast on anything that backoff-and-retry cannot fix. A down
	// server is not a setup error — the whole point of the reconnecting
	// stream is to ride through it — so that enters the retry loop.
	resp, err := s.connect(sctx)
	if err != nil && !retryable(err) {
		cancel()
		return nil, terminalErr(err)
	}
	go s.run(sctx, resp)
	return s, nil
}

// Stats returns a snapshot of the stream's reconnect/delivery counters.
// Safe to call concurrently with delivery, before and after C closes.
func (s *sseStream[E]) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Err returns the terminal error after C closed (nil for a clean close
// or cancellation).
func (s *sseStream[E]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears the stream down: the connection drops, the goroutine
// exits and C closes. Safe to call more than once.
func (s *sseStream[E]) Close() {
	s.cancel()
	<-s.done
}

func (s *sseStream[E]) record(update func(*StreamStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	update(&s.stats)
}

func (s *sseStream[E]) recordDisconnect(wasOpen bool, cause string) {
	s.record(func(st *StreamStats) {
		if wasOpen {
			st.Disconnects++
		}
		st.Connected = false
		st.LastDisconnect = cause
		st.LastDisconnectAt = time.Now()
	})
}

// retryable reports whether an error is worth a backoff-and-reconnect:
// transport failures and explicitly transient server states are; typed
// client errors (pattern gone, compacted resume point) are terminal,
// because reconnecting would hit the same answer.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		// "closed" is a server shutting down — the restart we are designed
		// to ride through. Everything else typed is terminal.
		return apiErr.Code == CodeClosed || apiErr.Status >= 500
	}
	// Transport-level failure (connection refused/reset, EOF): retry.
	return true
}

// connect opens one SSE request, resuming via Last-Event-ID when a
// sequence is held.
func (s *sseStream[E]) connect(ctx context.Context) (*http.Response, error) {
	s.record(func(st *StreamStats) { st.Attempts++ })
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if s.haveSeq {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(s.lastSeq, 10))
	}
	resp, err := s.c.hc.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = apiError(resp)
		resp.Body.Close()
	}
	if err != nil {
		s.recordDisconnect(false, err.Error())
		return nil, err
	}
	s.record(func(st *StreamStats) { st.Connects++; st.Connected = true })
	return resp, nil
}

// run is the delivery loop: read frames, deliver deduplicated events,
// reconnect with exponential backoff on drops, stop on ctx or terminal
// errors. resp is the open first connection, nil when it failed retryably.
func (s *sseStream[E]) run(ctx context.Context, resp *http.Response) {
	defer close(s.done)
	defer close(s.ch)
	backoff := s.c.backoffMin
	for {
		progressed := false
		if resp == nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			var err error
			resp, err = s.connect(ctx)
			if err != nil && ctx.Err() != nil {
				return
			}
			if err != nil && !retryable(err) {
				// Typed so consumers can switch on the cause — notably
				// ErrCompacted, the re-sync-from-snapshot signal when no
				// rebase is possible.
				s.setErr(terminalErr(err))
				return
			}
		}
		if resp != nil {
			var err error
			progressed, err = s.consume(ctx, resp.Body)
			resp.Body.Close()
			resp = nil
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				// consume only errors on protocol violations (unparseable
				// frames); reconnecting would hit the same wire. Terminal.
				s.recordDisconnect(true, err.Error())
				s.setErr(err)
				return
			}
			s.recordDisconnect(true, "connection dropped")
		}
		// Reconnect, resuming after the last delivered sequence. A
		// connection that moved the cursor resets the backoff; a failed
		// attempt, or one that delivered only state (its head), doubles it:
		// a server that drops every connection at once is retried slower and
		// slower.
		if progressed {
			backoff = s.c.backoffMin
		} else if backoff *= 2; backoff > s.c.backoffMax {
			backoff = s.c.backoffMax
		}
		s.record(func(st *StreamStats) { st.CurrentBackoff = backoff })
	}
}

func (s *sseStream[E]) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// consume reads SSE frames off one connection until it drops, delivering
// typed events. It reports whether the connection moved the resume cursor
// (for backoff reset). A nil error is a plain connection drop.
func (s *sseStream[E]) consume(ctx context.Context, body io.ReadCloser) (progressed bool, err error) {
	// A dropped connection must unblock the scanner even between frames:
	// closing the body on ctx cancellation does that.
	stop := context.AfterFunc(ctx, func() { body.Close() })
	defer stop()
	s.startSeen = false
	from, had := s.lastSeq, s.haveSeq
	moved := func() bool { return s.haveSeq && (!had || s.lastSeq != from) }
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			f, ok, derr := s.decode(event, data)
			event, data = "", ""
			if derr != nil {
				return moved(), derr
			}
			if !ok || !s.advance(f.kind, f.seq) {
				continue
			}
			// Counted before the handoff so a consumer that just received
			// the event already sees it in Stats; at most one in-flight
			// event is over-counted if the stream closes mid-send.
			cursor := s.lastSeq
			s.record(func(st *StreamStats) { st.EventsDelivered++; st.LastSeq = cursor })
			// The delivery span ends once the consumer has the event, so
			// its duration is the end-to-end event age at this client.
			ds := s.c.deliverSpan(f.trace, f.at, s.spanAttr[0], s.spanAttr[1])
			select {
			case s.ch <- f.ev:
				ds.End()
			case <-ctx.Done():
				return moved(), nil
			}
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		// Deterministic: the server would resend the same oversized frame
		// on every reconnect, so retrying loops forever. Terminal.
		return moved(), fmt.Errorf("client: SSE frame exceeds the stream buffer: %w", err)
	}
	return moved(), nil // drop (EOF or close); the caller decides retry
}

// advance moves the resume cursor for one frame and reports whether the
// frame is to be delivered.
func (s *sseStream[E]) advance(kind frameKind, seq uint64) bool {
	switch kind {
	case frameStart:
		if !s.haveSeq {
			s.lastSeq, s.haveSeq = seq, true
		}
		first := !s.startSeen
		s.startSeen = true
		return first
	case framePattern:
		return true
	case frameCommit:
		if s.haveSeq && seq <= s.lastSeq {
			return false // replayed overlap: drop
		}
	}
	s.lastSeq, s.haveSeq = seq, true
	return true
}
