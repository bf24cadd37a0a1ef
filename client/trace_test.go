package client_test

import (
	"context"
	"encoding/json"
	. "gpm/client"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gpm"
	"gpm/internal/obs/trace"
)

// traceCapture is a stub server recording the traceparent header of each
// request and answering POST /v1/updates with a fixed seq.
type traceCapture struct {
	mu      sync.Mutex
	headers []string
}

func (tc *traceCapture) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc.mu.Lock()
		tc.headers = append(tc.headers, r.Header.Get("traceparent"))
		tc.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"seq": 7}) //nolint:errcheck // test stub
	})
}

func (tc *traceCapture) last(t *testing.T) string {
	t.Helper()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(tc.headers) == 0 {
		t.Fatal("server saw no request")
	}
	return tc.headers[len(tc.headers)-1]
}

// TestApplyInjectsContextTraceparent: a span context in the call context
// rides to the server as the W3C traceparent header, untouched.
func TestApplyInjectsContextTraceparent(t *testing.T) {
	tc := &traceCapture{}
	ts := httptest.NewServer(tc.handler())
	defer ts.Close()
	c := New(ts.URL)

	sc, ok := trace.Parse("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("bad test traceparent")
	}
	ctx := trace.NewContext(context.Background(), sc)
	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if got := tc.last(t); got != sc.Traceparent() {
		t.Fatalf("server saw traceparent %q, want %q", got, sc.Traceparent())
	}
}

// TestApplyOpensRootSpanWhenSampling: with a sampling tracer and an
// untraced context, Apply starts the trace itself — the header reaches
// the server and the client's ring retains the span with the commit seq.
func TestApplyOpensRootSpanWhenSampling(t *testing.T) {
	tc := &traceCapture{}
	ts := httptest.NewServer(tc.handler())
	defer ts.Close()
	tr := trace.New(trace.Config{Mode: trace.ModeAlways})
	c := New(ts.URL, WithTracer(tr))

	seq, err := c.Apply(context.Background(), []gpm.Update{gpm.Insert(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	sent, ok := trace.Parse(tc.last(t))
	if !ok {
		t.Fatalf("server saw no valid traceparent: %q", tc.last(t))
	}
	snap, ok := tr.BySeq(seq)
	if !ok {
		t.Fatalf("client tracer retained nothing for seq %d", seq)
	}
	if snap.TraceID != sent.TraceID.String() {
		t.Fatalf("retained trace %s, sent %s", snap.TraceID, sent.TraceID)
	}
	if len(snap.Spans) == 0 || snap.Spans[0].Name != "client.apply" {
		t.Fatalf("retained spans %v, want a client.apply root", snap.Spans)
	}

	// Default client (tracer off): no header is invented.
	c2 := New(ts.URL)
	if _, err := c2.Apply(context.Background(), []gpm.Update{gpm.Insert(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if got := tc.last(t); got != "" {
		t.Fatalf("untraced client sent traceparent %q", got)
	}
}
