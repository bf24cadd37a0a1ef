package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/rel"
)

// testGraphText renders a generator graph in the wire format.
func testGraphText(t *testing.T, seed int64) (*graph.Graph, string) {
	t.Helper()
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return g, buf.String()
}

// testPatternText renders a generator pattern in the wire format.
func testPatternText(t *testing.T, g *graph.Graph, k int, seed int64) string {
	t.Helper()
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: k}, seed)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func do(t *testing.T, hc *http.Client, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
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

// sseFrame is one parsed SSE event.
type sseFrame struct {
	event string
	data  map[string]any
}

// readSSE reads n frames from an open SSE stream.
func readSSE(t *testing.T, sc *bufio.Scanner, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for len(frames) < n && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatal(err)
			}
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		}
	}
	if len(frames) < n {
		t.Fatalf("SSE stream ended after %d frames, want %d (err %v)", len(frames), n, sc.Err())
	}
	return frames
}

// pairsOf converts a JSON pair list to a relation over np pattern nodes.
func pairsOf(t *testing.T, raw any, np int) rel.Relation {
	t.Helper()
	r := rel.NewRelation(np)
	if raw == nil {
		return r
	}
	list, ok := raw.([]any)
	if !ok {
		t.Fatalf("pairs payload is %T", raw)
	}
	for _, item := range list {
		m := item.(map[string]any)
		r[int(m["u"].(float64))].Add(int(m["v"].(float64)))
	}
	return r
}

// TestEndToEnd drives every endpoint over a live httptest server: graph
// load, registration (two kinds), results, updates, the SSE stream in
// commit order, unregistration, and the error paths.
func TestEndToEnd(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 1)

	// Error paths before a graph exists.
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", "node 0 bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad graph: code %d", code)
	}
	if code, _ := do(t, hc, "GET", ts.URL+"/v1/patterns/none/result", ""); code != http.StatusNotFound {
		t.Fatalf("missing pattern result: code %d", code)
	}

	// Load the graph.
	code, body := do(t, hc, "POST", ts.URL+"/v1/graph", gtext)
	if code != http.StatusOK || int(body["nodes"].(float64)) != g.NumNodes() {
		t.Fatalf("load graph: code %d body %v", code, body)
	}

	// Register one normal (auto→sim) and one bounded pattern.
	simText := testPatternText(t, g, 1, 1)
	bsimText := testPatternText(t, g, 2, 2)
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/watch?kind=auto", simText); code != http.StatusCreated {
		t.Fatalf("register watch: code %d", code)
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/deep?kind=bsim", bsimText); code != http.StatusCreated {
		t.Fatalf("register deep: code %d", code)
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/watch", simText); code != http.StatusConflict {
		t.Fatalf("duplicate register: code %d", code)
	}
	// Validation failures are client errors (400), distinct from the 409
	// reserved for duplicate ids.
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/bad?kind=iso", bsimText); code != http.StatusBadRequest {
		t.Fatalf("iso over bounded pattern must be 400: code %d", code)
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/bad?kind=bogus", simText); code != http.StatusBadRequest {
		t.Fatalf("unknown kind must be 400: code %d", code)
	}

	code, body = do(t, hc, "GET", ts.URL+"/v1/patterns", "")
	if code != http.StatusOK || len(body["patterns"].([]any)) != 2 {
		t.Fatalf("list patterns: code %d body %v", code, body)
	}

	// Open the SSE stream before committing updates.
	streamResp, err := hc.Get(ts.URL + "/v1/patterns/watch/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type %q", ct)
	}
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	snap := readSSE(t, sc, 1)[0]
	if snap.event != "snapshot" {
		t.Fatalf("first SSE event %q", snap.event)
	}

	// Commit three update batches and check seq advances monotonically.
	ups := generator.Updates(g, 30, 30, 7)
	var lastSeq float64
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := graph.WriteUpdates(&buf, ups[i*20:(i+1)*20]); err != nil {
			t.Fatal(err)
		}
		code, body = do(t, hc, "POST", ts.URL+"/v1/updates", buf.String())
		if code != http.StatusOK {
			t.Fatalf("updates: code %d body %v", code, body)
		}
		if s := body["seq"].(float64); s != lastSeq+1 {
			t.Fatalf("seq %v after %v", s, lastSeq)
		}
		lastSeq = body["seq"].(float64)
	}

	// The stream must deliver the three deltas in commit order; snapshot
	// plus accumulated deltas must equal the live result.
	np := 3
	acc := pairsOf(t, snap.data["pairs"], np)
	want := snap.data["seq"].(float64)
	for _, frame := range readSSE(t, sc, 3) {
		if frame.event != "delta" {
			t.Fatalf("SSE event %q", frame.event)
		}
		want++
		if frame.data["seq"].(float64) != want {
			t.Fatalf("delta seq %v, want %v", frame.data["seq"], want)
		}
		for _, p := range pairsOf(t, frame.data["removed"], np).Pairs() {
			acc[p.U].Remove(p.V)
		}
		for _, p := range pairsOf(t, frame.data["added"], np).Pairs() {
			acc[p.U].Add(p.V)
		}
	}
	code, body = do(t, hc, "GET", ts.URL+"/v1/patterns/watch/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: code %d", code)
	}
	live := pairsOf(t, body["pairs"], np)
	if !acc.Equal(live) {
		t.Fatal("SSE snapshot+deltas diverge from /result")
	}

	// Graph stats reflect the commits.
	code, body = do(t, hc, "GET", ts.URL+"/v1/graph", "")
	if code != http.StatusOK || body["seq"].(float64) != lastSeq {
		t.Fatalf("graph info: code %d body %v", code, body)
	}

	// Bad updates are rejected without advancing seq.
	if code, _ = do(t, hc, "POST", ts.URL+"/v1/updates", "insert 0 999999\n"); code != http.StatusBadRequest {
		t.Fatalf("out-of-range update: code %d", code)
	}
	if code, _ = do(t, hc, "POST", ts.URL+"/v1/updates", "garbage\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed update: code %d", code)
	}

	// Unregister closes the live stream.
	if code, _ = do(t, hc, "DELETE", ts.URL+"/v1/patterns/watch", ""); code != http.StatusOK {
		t.Fatalf("unregister: code %d", code)
	}
	if code, _ = do(t, hc, "DELETE", ts.URL+"/v1/patterns/watch", ""); code != http.StatusNotFound {
		t.Fatalf("double unregister: code %d", code)
	}
	closed := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after unregister")
	}
}

// TestStreamOfIsoPattern covers the third engine kind end to end over SSE.
func TestStreamOfIsoPattern(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 3)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	ptext := testPatternText(t, g, 1, 3)
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/iso?kind=iso", ptext); code != http.StatusCreated {
		t.Fatal("register iso failed")
	}
	resp, err := hc.Get(ts.URL + "/v1/patterns/iso/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	snap := readSSE(t, sc, 1)[0]
	acc := pairsOf(t, snap.data["pairs"], 3)

	ups := generator.Updates(g, 15, 15, 9)
	var buf bytes.Buffer
	if err := graph.WriteUpdates(&buf, ups); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", buf.String()); code != http.StatusOK {
		t.Fatal("updates failed")
	}
	frame := readSSE(t, sc, 1)[0]
	for _, p := range pairsOf(t, frame.data["removed"], 3).Pairs() {
		acc[p.U].Remove(p.V)
	}
	for _, p := range pairsOf(t, frame.data["added"], 3).Pairs() {
		acc[p.U].Add(p.V)
	}
	_, body := do(t, hc, "GET", ts.URL+"/v1/patterns/iso/result", "")
	if !acc.Equal(pairsOf(t, body["pairs"], 3)) {
		t.Fatal("iso SSE accumulation diverges from /result")
	}
}

// TestLoadGraphResetsPatterns verifies POST /graph drops standing queries.
func TestLoadGraphResetsPatterns(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 5)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q", testPatternText(t, g, 1, 5)); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("reload failed")
	}
	code, body := do(t, hc, "GET", ts.URL+"/v1/patterns", "")
	if code != http.StatusOK || len(body["patterns"].([]any)) != 0 {
		t.Fatalf("patterns after reload: %v", body)
	}
	if code, _ := do(t, hc, "GET", ts.URL+"/v1/patterns/q/result", ""); code != http.StatusNotFound {
		t.Fatalf("stale pattern result: code %d", code)
	}
}

// TestStatsEndpoint checks GET /stats: graph size, pattern count, commit
// sequence and the writer's coalescing counters, before and after commits.
func TestStatsEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 5)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q?kind=sim", testPatternText(t, g, 1, 5)); code != http.StatusCreated {
		t.Fatal("register failed")
	}

	code, stats := do(t, hc, "GET", ts.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("GET /stats: code %d", code)
	}
	if int(stats["nodes"].(float64)) != g.NumNodes() || int(stats["edges"].(float64)) != g.NumEdges() {
		t.Fatalf("stats graph size: %v", stats)
	}
	if int(stats["patterns"].(float64)) != 1 || stats["seq"].(float64) != 0 || stats["commits"].(float64) != 0 {
		t.Fatalf("initial stats: %v", stats)
	}

	// One commit with an internally-cancelling pair plus a real update.
	var u, v graph.NodeID = -1, -1
	for a := 0; a < g.NumNodes() && u < 0; a++ {
		for b := 0; b < g.NumNodes(); b++ {
			if a != b && !g.HasEdge(a, b) {
				u, v = a, b
				break
			}
		}
	}
	upText := "insert " + itoa(u) + " " + itoa(v) + "\ndelete " + itoa(u) + " " + itoa(v) + "\n"
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", upText); code != http.StatusOK {
		t.Fatal("updates failed")
	}

	_, stats = do(t, hc, "GET", ts.URL+"/v1/stats", "")
	if stats["seq"].(float64) != 1 || stats["commits"].(float64) != 1 || stats["applies"].(float64) != 1 {
		t.Fatalf("post-commit stats: %v", stats)
	}
	if stats["updates_submitted"].(float64) != 2 || stats["updates_applied"].(float64) != 0 ||
		stats["updates_cancelled"].(float64) != 2 {
		t.Fatalf("cancellation stats: %v", stats)
	}
}

// TestStatsNetworkBlock: GET /stats exposes the shared evaluation
// network's counters, and registering a structurally identical pattern
// under a second id shows up as a reused join rather than a new engine.
func TestStatsNetworkBlock(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 9)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	ptext := testPatternText(t, g, 1, 9)
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q?kind=sim", ptext); code != http.StatusCreated {
		t.Fatal("register q failed")
	}
	_, stats := do(t, hc, "GET", ts.URL+"/v1/stats", "")
	net, ok := stats["network"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing network block: %v", stats)
	}
	if int(net["patterns"].(float64)) != 1 || int(net["join_nodes"].(float64)) != 1 {
		t.Fatalf("network stats after one pattern: %v", net)
	}

	// The same definition under a new id reuses the shared join outright.
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q2?kind=sim", ptext); code != http.StatusCreated {
		t.Fatal("register q2 failed")
	}
	_, stats = do(t, hc, "GET", ts.URL+"/v1/stats", "")
	net = stats["network"].(map[string]any)
	if int(net["patterns"].(float64)) != 2 || int(net["join_nodes"].(float64)) != 1 {
		t.Fatalf("twin registration did not share the join: %v", net)
	}
	if int(net["register_reused"].(float64)) != 1 {
		t.Fatalf("want register_reused=1: %v", net)
	}

	// A committed update repairs the shared join once for both patterns.
	var u, v graph.NodeID = -1, -1
	for a := 0; a < g.NumNodes() && u < 0; a++ {
		for b := 0; b < g.NumNodes(); b++ {
			if a != b && !g.HasEdge(a, b) {
				u, v = a, b
				break
			}
		}
	}
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", "insert "+itoa(u)+" "+itoa(v)+"\n"); code != http.StatusOK {
		t.Fatal("updates failed")
	}
	_, stats = do(t, hc, "GET", ts.URL+"/v1/stats", "")
	net = stats["network"].(map[string]any)
	if int(net["repairs_saved"].(float64)) < 1 {
		t.Fatalf("shared join repair saved nothing: %v", net)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
