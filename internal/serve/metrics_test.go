package serve

import (
	"bufio"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpm/internal/contq"
	"gpm/internal/obs"
)

// newTestLogger builds a text slog writing to w, timestamps stripped so
// assertions stay simple.
func newTestLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// TestMetricsEndToEnd drives real commits through a live server and checks
// the two read surfaces agree: GET /v1/stats carries the timings block and
// GET /v1/metricz the Prometheus exposition, both showing the commits that
// actually ran (and the SSE event-age series once a stream consumed them).
func TestMetricsEndToEnd(t *testing.T) {
	mreg := obs.NewRegistry()
	srv := New(contq.WithMetrics(mreg))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	hc := ts.Client()

	g, gtext := testGraphText(t, 7)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q?kind=sim", testPatternText(t, g, 1, 7)); code != http.StatusCreated {
		t.Fatal("register failed")
	}

	// A live stream of each kind, so delivery-side series get
	// observations too.
	resp, err := hc.Get(ts.URL + "/v1/patterns/q/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	readSSE(t, sc, 1) // snapshot
	cresp, err := hc.Get(ts.URL + "/v1/commits/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	csc := bufio.NewScanner(cresp.Body)
	readSSE(t, csc, 1) // head

	const commits = 3
	for i := 0; i < commits; i++ {
		if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", "insert 1 2"); code != http.StatusOK {
			t.Fatal("update failed")
		}
		if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", "delete 1 2"); code != http.StatusOK {
			t.Fatal("update failed")
		}
	}
	readSSE(t, sc, 2*commits)
	readSSE(t, csc, 2*commits)

	// Surface 1: /v1/stats carries the timings block.
	code, stats := do(t, hc, "GET", ts.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	timings, ok := stats["timings"].(map[string]any)
	if !ok {
		t.Fatalf("stats response has no timings block: %v", stats)
	}
	total, ok := timings["total_ms"].(map[string]any)
	if !ok {
		t.Fatalf("timings has no total_ms: %v", timings)
	}
	if n := total["count"].(float64); n != 2*commits {
		t.Fatalf("stats total_ms count = %v, want %d", n, 2*commits)
	}
	if total["sum"].(float64) <= 0 {
		t.Fatalf("stats total_ms sum not positive: %v", total)
	}
	if v, ok := timings["validate_ms"].(map[string]any); !ok || v["count"].(float64) != 2*commits {
		t.Fatalf("stats validate_ms missing or wrong: %v", timings["validate_ms"])
	}

	// Surface 2: /v1/metricz serves the exposition from the same registry.
	mresp, err := hc.Get(ts.URL + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metricz status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metricz content type %q", ct)
	}
	var b strings.Builder
	msc := bufio.NewScanner(mresp.Body)
	for msc.Scan() {
		b.WriteString(msc.Text())
		b.WriteByte('\n')
	}
	body := b.String()
	for _, want := range []string{
		"# TYPE gpm_commit_stage_ms histogram",
		`gpm_commit_stage_ms_count{stage="validate"} 6`,
		`gpm_commit_stage_ms_count{stage="publish"} 6`,
		"gpm_commit_ms_count 6",
		"gpm_commits_total 6",
		"gpm_subscriptions_active 1",
		"# TYPE gpm_sse_event_age_ms histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metricz missing %q:\n%s", want, body)
		}
	}

	// The streams consumed 6 deltas and 6 commits; the age series must
	// have seen both kinds.
	age := mreg.Histogram("gpm_sse_event_age_ms", "", nil).Snapshot()
	if age.Count != 4*commits {
		t.Fatalf("sse event age count = %d, want %d", age.Count, 4*commits)
	}
}

// TestAccessLogMiddleware checks the middleware records route, status and
// duration, and stays transparent to the wrapped handler.
func TestAccessLogMiddleware(t *testing.T) {
	srv := New()
	t.Cleanup(srv.Close)
	var lines strings.Builder
	logger := newTestLogger(&lines)
	ts := httptest.NewServer(AccessLog(srv, logger))
	t.Cleanup(ts.Close)

	if code, _ := do(t, ts.Client(), "GET", ts.URL+"/v1/healthz", ""); code != http.StatusOK {
		t.Fatal("healthz through middleware failed")
	}
	if code, _ := do(t, ts.Client(), "GET", ts.URL+"/v1/patterns/none/result", ""); code != http.StatusNotFound {
		t.Fatal("404 through middleware lost its status")
	}
	out := lines.String()
	if !strings.Contains(out, "path=/v1/healthz") || !strings.Contains(out, "status=200") {
		t.Fatalf("access log missing healthz line:\n%s", out)
	}
	if !strings.Contains(out, "path=/v1/patterns/none/result") || !strings.Contains(out, "status=404") {
		t.Fatalf("access log missing 404 line:\n%s", out)
	}
	if !strings.Contains(out, "duration_ms=") {
		t.Fatalf("access log missing duration:\n%s", out)
	}
}
