package serve

import (
	"bufio"
	"encoding/json"
	"gpm/client"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpm/internal/contq"
	"gpm/internal/obs"
	"gpm/internal/obs/trace"
)

const testTraceparent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
const testTraceID = "0123456789abcdef0123456789abcdef"

// tracedServer returns a test server sampling every commit, with a graph
// loaded and one sim pattern "q" registered.
func tracedServer(t *testing.T) (*httptest.Server, *http.Client, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Config{Mode: trace.ModeAlways})
	srv := New(contq.WithTracer(tr), contq.WithMetrics(obs.NewRegistry()))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	hc := ts.Client()
	g, gtext := testGraphText(t, 11)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q?kind=sim", testPatternText(t, g, 1, 11)); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	return ts, hc, tr
}

// doTraced is do with a sampled traceparent header attached.
func doTraced(t *testing.T, hc *http.Client, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", testTraceparent)
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// TestIngestTraceRetrievableFromTracez: a traced POST /v1/updates must
// land in the tracer under the CALLER's trace ID, with the HTTP ingest
// span and the full commit stage tree, retrievable from /v1/tracez by
// seq, by trace ID, and in the list form.
func TestIngestTraceRetrievableFromTracez(t *testing.T) {
	ts, hc, _ := tracedServer(t)

	code, body := doTraced(t, hc, "POST", ts.URL+"/v1/updates", "insert 1 2\n")
	if code != http.StatusOK {
		t.Fatalf("traced update: code %d body %v", code, body)
	}
	seq := int(body["seq"].(float64))

	code, doc := do(t, hc, "GET", ts.URL+"/v1/tracez?seq=1", "")
	if code != http.StatusOK {
		t.Fatalf("tracez?seq=%d: code %d body %v", seq, code, doc)
	}
	if got := doc["trace_id"]; got != testTraceID {
		t.Fatalf("tracez seq lookup trace_id = %v, want caller's %s", got, testTraceID)
	}
	names := make(map[string]bool)
	for _, raw := range doc["spans"].([]any) {
		names[raw.(map[string]any)["name"].(string)] = true
	}
	for _, n := range []string{"http.ingest", "commit", "stage.validate", "stage.journal", "stage.publish"} {
		if !names[n] {
			t.Fatalf("trace missing span %q (have %v)", n, names)
		}
	}

	if code, doc = do(t, hc, "GET", ts.URL+"/v1/tracez?trace="+testTraceID, ""); code != http.StatusOK || doc["trace_id"] != testTraceID {
		t.Fatalf("tracez by id: code %d body %v", code, doc)
	}
	if code, doc = do(t, hc, "GET", ts.URL+"/v1/tracez", ""); code != http.StatusOK {
		t.Fatalf("tracez list: code %d", code)
	}
	if doc["mode"] != "always" || len(doc["traces"].([]any)) == 0 {
		t.Fatalf("tracez list: mode %v, %v traces", doc["mode"], doc["traces"])
	}

	// Misses are typed envelopes, not empty documents.
	if code, doc = do(t, hc, "GET", ts.URL+"/v1/tracez?trace="+strings.Repeat("f", 32), ""); code != http.StatusNotFound || doc["code"] != client.CodeNotFound {
		t.Fatalf("tracez unknown id: code %d body %v", code, doc)
	}
	if code, doc = do(t, hc, "GET", ts.URL+"/v1/tracez?seq=999", ""); code != http.StatusNotFound || doc["code"] != client.CodeNotFound {
		t.Fatalf("tracez unknown seq: code %d body %v", code, doc)
	}
	if code, _ = do(t, hc, "GET", ts.URL+"/v1/tracez?seq=x", ""); code != http.StatusBadRequest {
		t.Fatalf("tracez bad seq: code %d", code)
	}
}

// TestErrorEnvelopeCarriesTraceID: a failing traced request must echo the
// trace ID in its error envelope, so the client can pull the server-side
// story of its own failure.
func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	ts, hc, _ := tracedServer(t)
	code, body := doTraced(t, hc, "POST", ts.URL+"/v1/updates", "garbage")
	if code != http.StatusBadRequest || body["code"] != client.CodeInvalidUpdates {
		t.Fatalf("bad updates: code %d body %v", code, body)
	}
	if body["trace_id"] != testTraceID {
		t.Fatalf("error envelope trace_id = %v, want %s", body["trace_id"], testTraceID)
	}
	// Untraced failures must not carry the field at all.
	if _, body = do(t, hc, "POST", ts.URL+"/v1/updates", "garbage"); body["trace_id"] != nil {
		t.Fatalf("untraced error envelope has trace_id %v", body["trace_id"])
	}

	// A follower's read_only rejection goes through the same envelope.
	follower := NewReadOnly("http://leader.invalid")
	ro := httptest.NewServer(follower)
	defer ro.Close()
	defer follower.Close()
	code, body = doTraced(t, ro.Client(), "POST", ro.URL+"/v1/updates", "insert 0 1\n")
	if code != http.StatusForbidden || body["code"] != client.CodeReadOnly || body["leader"] != "http://leader.invalid" {
		t.Fatalf("read-only write: code %d body %v", code, body)
	}
	if body["trace_id"] != testTraceID {
		t.Fatalf("read_only envelope trace_id = %v, want %s", body["trace_id"], testTraceID)
	}
	if _, body = do(t, ro.Client(), "POST", ro.URL+"/v1/updates", "insert 0 1\n"); body["trace_id"] != nil {
		t.Fatalf("untraced read_only envelope has trace_id %v", body["trace_id"])
	}
}

// TestDeltaFrameCarriesTrace: the SSE delta produced by a traced commit
// must carry the commit's traceparent and publish timestamp, and the
// delivery must append an sse.deliver span to the same trace.
func TestDeltaFrameCarriesTrace(t *testing.T) {
	ts, hc, tr := tracedServer(t)

	streamResp, err := hc.Get(ts.URL + "/v1/patterns/q/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	readSSE(t, sc, 1) // snapshot

	if code, body := doTraced(t, hc, "POST", ts.URL+"/v1/updates", "insert 1 2\n"); code != http.StatusOK {
		t.Fatalf("traced update: code %d body %v", code, body)
	}
	frames := readSSE(t, sc, 1)
	delta := frames[0]
	if delta.event != "delta" {
		t.Fatalf("frame event %q, want delta", delta.event)
	}
	tp, _ := delta.data["trace"].(string)
	psc, ok := trace.Parse(tp)
	if !ok || psc.TraceID.String() != testTraceID {
		t.Fatalf("delta frame trace %q, want traceparent of %s", tp, testTraceID)
	}
	if _, ok := delta.data["at"]; !ok {
		t.Fatal("delta frame missing publish timestamp at")
	}
	// The server records the delivery span onto the same trace.
	snap, ok := tr.Lookup(testTraceID)
	if !ok {
		t.Fatal("trace not retained")
	}
	found := false
	for _, sp := range snap.Spans {
		if sp.Name == "sse.deliver" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace has no sse.deliver span")
	}
}

// TestStatsAndMetricsCarryBuildInfo is the build-identity satellite: the
// stats document has a build block and the metrics exposition the
// constant gpm_build_info gauge.
func TestStatsAndMetricsCarryBuildInfo(t *testing.T) {
	ts, hc, _ := tracedServer(t)
	code, body := do(t, hc, "GET", ts.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: code %d", code)
	}
	build, ok := body["build"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no build block: %v", body)
	}
	if gov, _ := build["go"].(string); gov == "" || gov == "unknown" {
		t.Fatalf("build block go version = %v", build["go"])
	}
	resp, err := hc.Get(ts.URL + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text())
		buf.WriteByte('\n')
	}
	if !strings.Contains(buf.String(), "gpm_build_info{") {
		t.Fatal("metricz missing gpm_build_info")
	}
}
