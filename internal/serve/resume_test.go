package serve

import (
	"bufio"
	"bytes"
	"gpm/client"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/rel"
)

// postUpdates commits one batch over HTTP and returns its seq.
func postUpdates(t *testing.T, hc *http.Client, url string, ups []graph.Update) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteUpdates(&buf, ups); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, hc, "POST", url+"/v1/updates", buf.String())
	if code != http.StatusOK {
		t.Fatalf("updates: code %d body %v", code, body)
	}
	return uint64(body["seq"].(float64))
}

// openStream opens an SSE stream, optionally resuming via Last-Event-ID.
func openStream(t *testing.T, hc *http.Client, url, id string, lastEventID string) (*http.Response, *bufio.Scanner) {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/v1/patterns/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: code %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return resp, sc
}

// applyFrame folds one delta frame into acc and returns its seq.
func applyFrame(t *testing.T, frame sseFrame, acc rel.Relation, np int) uint64 {
	t.Helper()
	if frame.event != "delta" {
		t.Fatalf("event %q, want delta", frame.event)
	}
	for _, p := range pairsOf(t, frame.data["removed"], np).Pairs() {
		acc[p.U].Remove(p.V)
	}
	for _, p := range pairsOf(t, frame.data["added"], np).Pairs() {
		acc[p.U].Add(p.V)
	}
	return uint64(frame.data["seq"].(float64))
}

// TestStreamResumeAfterDisconnect is the SSE-resume satellite: a stream
// killed mid-feed reconnects with Last-Event-ID and observes exactly the
// missed deltas — no gaps, no duplicates, no snapshot re-send.
func TestStreamResumeAfterDisconnect(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 11)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/watch?kind=sim", testPatternText(t, g, 1, 11)); code != http.StatusCreated {
		t.Fatal("register failed")
	}

	const np = 3
	ups := generator.Updates(g, 40, 40, 13)

	// Phase 1: live stream sees the snapshot and the first two commits.
	resp, sc := openStream(t, hc, ts.URL, "watch", "")
	snap := readSSE(t, sc, 1)[0]
	if snap.event != "snapshot" {
		t.Fatalf("first event %q", snap.event)
	}
	acc := pairsOf(t, snap.data["pairs"], np)
	last := uint64(snap.data["seq"].(float64))
	for i := 0; i < 2; i++ {
		postUpdates(t, hc, ts.URL, ups[i*10:(i+1)*10])
	}
	for _, frame := range readSSE(t, sc, 2) {
		seq := applyFrame(t, frame, acc, np)
		if seq != last+1 {
			t.Fatalf("live phase: seq %d after %d", seq, last)
		}
		last = seq
	}
	resp.Body.Close() // kill the stream mid-feed

	// Phase 2: commits the client misses while disconnected.
	for i := 2; i < 4; i++ {
		postUpdates(t, hc, ts.URL, ups[i*10:(i+1)*10])
	}

	// Phase 3: reconnect with Last-Event-ID; the first frame must be the
	// delta for last+1 — not a snapshot, not a repeat, not a skip.
	resp2, sc2 := openStream(t, hc, ts.URL, "watch", strconv.FormatUint(last, 10))
	defer resp2.Body.Close()
	for _, frame := range readSSE(t, sc2, 2) {
		seq := applyFrame(t, frame, acc, np)
		if seq != last+1 {
			t.Fatalf("resume phase: seq %d after %d (gap or duplicate)", seq, last)
		}
		last = seq
	}
	// The resumed accumulation equals the live result.
	_, body := do(t, hc, "GET", ts.URL+"/v1/patterns/watch/result", "")
	if !acc.Equal(pairsOf(t, body["pairs"], np)) {
		t.Fatal("snapshot + pre-disconnect deltas + resumed deltas diverge from /result")
	}
	// And the stream stays live: one more commit arrives in order.
	postUpdates(t, hc, ts.URL, ups[:5])
	if seq := applyFrame(t, readSSE(t, sc2, 1)[0], acc, np); seq != last+1 {
		t.Fatalf("post-resume live delta has seq %d, want %d", seq, last+1)
	}
	_, body = do(t, hc, "GET", ts.URL+"/v1/patterns/watch/result", "")
	if !acc.Equal(pairsOf(t, body["pairs"], np)) {
		t.Fatal("post-resume accumulation diverges from /result")
	}
}

// TestResumeHeaderBeatsQuery: an EventSource opened with ?from=N keeps
// the stale query on every auto-reconnect but sends a current
// Last-Event-ID — the header must win or deltas replay twice.
func TestResumeHeaderBeatsQuery(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 43)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q?kind=sim", testPatternText(t, g, 1, 43)); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	ups := generator.Updates(g, 30, 30, 47)
	for i := 0; i < 3; i++ {
		postUpdates(t, hc, ts.URL, ups[i*10:(i+1)*10])
	}
	// Stale ?from=0 on the URL, current Last-Event-ID: 2 in the header.
	req, err := http.NewRequest("GET", ts.URL+"/v1/patterns/q/stream?from=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "2")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	frame := readSSE(t, sc, 1)[0]
	if frame.event != "delta" || frame.data["seq"].(float64) != 3 {
		t.Fatalf("first frame %s seq %v, want delta seq 3 (header must beat ?from)", frame.event, frame.data["seq"])
	}
}

// TestStreamResumeFallbackToSnapshot: when the journal no longer retains
// the requested range, the reconnect falls back to a snapshot frame.
func TestStreamResumeFallbackToSnapshot(t *testing.T) {
	// A 2-commit ring: anything older is compacted away.
	srv, err := NewWithJournal(journal.New(journal.WithRing(2)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 17)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q?kind=sim", testPatternText(t, g, 1, 17)); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	ups := generator.Updates(g, 30, 30, 19)
	for i := 0; i < 6; i++ {
		postUpdates(t, hc, ts.URL, ups[i*10:(i+1)*10])
	}
	resp, sc := openStream(t, hc, ts.URL, "q", "1") // seq 1 is long gone
	defer resp.Body.Close()
	frame := readSSE(t, sc, 1)[0]
	if frame.event != "snapshot" {
		t.Fatalf("fallback event %q, want snapshot", frame.event)
	}
	const np = 3
	_, body := do(t, hc, "GET", ts.URL+"/v1/patterns/q/result", "")
	if !pairsOf(t, frame.data["pairs"], np).Equal(pairsOf(t, body["pairs"], np)) {
		t.Fatal("fallback snapshot diverges from /result")
	}
}

// TestResumeAtHeadSendsHeadersImmediately: a resumed stream has no
// snapshot frame to force the first flush, so the handler must flush the
// headers itself — otherwise a caught-up client hangs in CONNECTING
// until the next commit.
func TestResumeAtHeadSendsHeadersImmediately(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 53)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/q?kind=sim", testPatternText(t, g, 1, 53)); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	head := postUpdates(t, hc, ts.URL, generator.Updates(g, 10, 10, 53))

	req, err := http.NewRequest("GET", ts.URL+"/v1/patterns/q/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(head, 10))
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := hc.Do(req)
		done <- result{resp, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		defer r.resp.Body.Close()
		if r.resp.StatusCode != http.StatusOK || r.resp.Header.Get("Content-Type") != "text/event-stream" {
			t.Fatalf("resume-at-head response: %d %q", r.resp.StatusCode, r.resp.Header.Get("Content-Type"))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resume-at-head stream never sent response headers (missing flush)")
	}
}

// TestJournalFailureSurfaces: once the journal stops accepting appends,
// a commit that succeeded in memory must surface as a 5xx carrying its
// assigned seq (not a 4xx), and GET /commits must return 410 rather than
// a silently truncated tail.
func TestJournalFailureSurfaces(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 59)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	ups := generator.Updates(g, 20, 20, 59)
	postUpdates(t, hc, ts.URL, ups[:10])

	// Simulate the journal dying under the live registry.
	if err := srv.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, hc, "POST", ts.URL+"/v1/updates", updatesText(t, ups[10:20]))
	if code != http.StatusInternalServerError {
		t.Fatalf("journaled-commit failure: code %d body %v (must be 500, not 4xx)", code, body)
	}
	if body["seq"].(float64) != 2 || body["code"] != client.CodeJournalFailed || body["message"] == nil {
		t.Fatalf("500 body must carry the assigned seq and the journal_failed envelope: %v", body)
	}
	if body["trace_id"] != nil {
		t.Fatalf("untraced journal_failed envelope has trace_id %v", body["trace_id"])
	}
	// The commit stands in memory: head advanced.
	_, info := do(t, hc, "GET", ts.URL+"/v1/graph", "")
	if info["seq"].(float64) != 2 {
		t.Fatalf("graph seq %v, want 2", info["seq"])
	}
	// The raw tail is no longer complete: 410, not a silent truncation.
	if code, _ := do(t, hc, "GET", ts.URL+"/v1/commits", ""); code != http.StatusGone {
		t.Fatalf("/commits with stopped journal: code %d, want 410", code)
	}
	// A malformed batch is still a plain 400 with no seq.
	code, body = do(t, hc, "POST", ts.URL+"/v1/updates", "insert 0 999999\n")
	if code != http.StatusBadRequest || body["seq"] != nil {
		t.Fatalf("validation failure: code %d body %v", code, body)
	}
	// A traced write names its trace even though this server samples
	// nothing itself.
	code, body = doTraced(t, hc, "POST", ts.URL+"/v1/updates", updatesText(t, ups[20:21]))
	if code != http.StatusInternalServerError || body["code"] != client.CodeJournalFailed ||
		body["seq"] != float64(3) || body["trace_id"] != testTraceID {
		t.Fatalf("traced journal_failed: code %d body %v, want seq 3 and trace_id %s", code, body, testTraceID)
	}
}

// updatesText renders a batch in the wire format.
func updatesText(t *testing.T, ups []graph.Update) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteUpdates(&buf, ups); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCommitsEndpoint covers GET /commits: the raw ΔG tail, bad and
// future from= values, and the 410 for compacted history.
func TestCommitsEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 23)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	ups := generator.Updates(g, 20, 20, 29)
	seq1 := postUpdates(t, hc, ts.URL, ups[:10])
	postUpdates(t, hc, ts.URL, ups[10:])

	code, body := do(t, hc, "GET", ts.URL+"/v1/commits", "")
	if code != http.StatusOK {
		t.Fatalf("/commits: code %d", code)
	}
	commits := body["commits"].([]any)
	if len(commits) != 2 || body["head"].(float64) != 2 {
		t.Fatalf("/commits body %v", body)
	}
	first := commits[0].(map[string]any)
	if uint64(first["seq"].(float64)) != seq1 {
		t.Fatalf("first commit seq %v, want %d", first["seq"], seq1)
	}
	if len(first["updates"].([]any)) == 0 {
		t.Fatal("first commit has no updates")
	}
	up := first["updates"].([]any)[0].(map[string]any)
	if op := up["op"].(string); op != "insert" && op != "delete" {
		t.Fatalf("update op %q", op)
	}

	code, body = do(t, hc, "GET", ts.URL+"/v1/commits?from=1", "")
	if code != http.StatusOK || len(body["commits"].([]any)) != 1 {
		t.Fatalf("/commits?from=1: code %d body %v", code, body)
	}
	if code, _ := do(t, hc, "GET", ts.URL+"/v1/commits?from=99", ""); code != http.StatusBadRequest {
		t.Fatalf("future from: code %d", code)
	}
	if code, _ := do(t, hc, "GET", ts.URL+"/v1/commits?from=bogus", ""); code != http.StatusBadRequest {
		t.Fatalf("bad from: code %d", code)
	}

	// Compacted history is 410 Gone.
	srv2, err := NewWithJournal(journal.New(journal.WithRing(1)))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	g2, gtext2 := testGraphText(t, 31)
	if code, _ := do(t, ts2.Client(), "POST", ts2.URL+"/v1/graph", gtext2); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	ups2 := generator.Updates(g2, 20, 20, 31)
	postUpdates(t, ts2.Client(), ts2.URL, ups2[:10])
	postUpdates(t, ts2.Client(), ts2.URL, ups2[10:])
	if code, _ := do(t, ts2.Client(), "GET", ts2.URL+"/v1/commits", ""); code != http.StatusGone {
		t.Fatalf("compacted /commits: code %d", code)
	}
}

// TestStatsIncludeJournal: GET /stats carries the journal counters the
// operators satellite asks for.
func TestStatsIncludeJournal(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	g, gtext := testGraphText(t, 37)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	postUpdates(t, hc, ts.URL, generator.Updates(g, 10, 10, 37))

	_, stats := do(t, hc, "GET", ts.URL+"/v1/stats", "")
	jn, ok := stats["journal"].(map[string]any)
	if !ok {
		t.Fatalf("stats have no journal section: %v", stats)
	}
	if jn["commits"].(float64) != 1 || jn["head_seq"].(float64) != 1 || jn["oldest_seq"].(float64) != 1 {
		t.Fatalf("journal stats %v", jn)
	}
	if jn["durable"].(bool) {
		t.Fatal("default server journal must be memory-only")
	}
}

// TestServerRestartRecovery is the crash-recovery acceptance e2e: a
// server with a durable journal is shut down and rebuilt from disk; the
// graph, patterns, sequence and results survive, a subscriber who last
// saw a pre-restart seq resumes with no gaps, and new commits flow.
func TestServerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	const np = 3

	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	hc := ts.Client()

	g, gtext := testGraphText(t, 41)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	for id, kind := range map[string]string{"s": "sim", "b": "bsim", "i": "iso"} {
		k := 1
		if kind == "bsim" {
			k = 2
		}
		if code, _ := do(t, hc, "PUT", ts.URL+"/v1/patterns/"+id+"?kind="+kind, testPatternText(t, g, k, 41)); code != http.StatusCreated {
			t.Fatalf("register %s failed", id)
		}
	}
	ups := generator.Updates(g, 40, 40, 43)

	// A streaming client follows the first two commits, then disconnects.
	resp, sc := openStream(t, hc, ts.URL, "s", "")
	snap := readSSE(t, sc, 1)[0]
	acc := pairsOf(t, snap.data["pairs"], np)
	last := uint64(snap.data["seq"].(float64))
	postUpdates(t, hc, ts.URL, ups[:10])
	postUpdates(t, hc, ts.URL, ups[10:20])
	for _, frame := range readSSE(t, sc, 2) {
		last = applyFrame(t, frame, acc, np)
	}
	resp.Body.Close()

	// One more commit the client never sees before the "crash".
	postUpdates(t, hc, ts.URL, ups[20:30])
	preSeq := uint64(3)
	want := map[string]rel.Relation{}
	for _, id := range []string{"s", "b", "i"} {
		_, body := do(t, hc, "GET", ts.URL+"/v1/patterns/"+id+"/result", "")
		want[id] = pairsOf(t, body["pairs"], np)
	}

	// Shut down: registry close flushes the journal, then the owner
	// closes it after the HTTP server drains — the gpserve SIGTERM order.
	srv.Close()
	ts.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from disk.
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	srv2, err := NewWithJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	client2 := ts2.Client()

	code, body := do(t, client2, "GET", ts2.URL+"/v1/graph", "")
	if code != http.StatusOK || uint64(body["seq"].(float64)) != preSeq {
		t.Fatalf("recovered /graph: code %d body %v", code, body)
	}
	if int(body["patterns"].(float64)) != 3 {
		t.Fatalf("recovered %v patterns, want 3", body["patterns"])
	}
	for id, w := range want {
		_, body := do(t, client2, "GET", ts2.URL+"/v1/patterns/"+id+"/result", "")
		if !w.Equal(pairsOf(t, body["pairs"], np)) {
			t.Fatalf("pattern %q result diverges after restart", id)
		}
	}

	// The disconnected client resumes across the restart: its next frame
	// is the pre-restart commit it missed, then post-restart commits.
	resp2, sc2 := openStream(t, client2, ts2.URL, "s", strconv.FormatUint(last, 10))
	defer resp2.Body.Close()
	if seq := applyFrame(t, readSSE(t, sc2, 1)[0], acc, np); seq != last+1 {
		t.Fatalf("cross-restart resume: seq %d after %d", seq, last)
	}
	newSeq := postUpdates(t, client2, ts2.URL, ups[30:])
	if newSeq != preSeq+1 {
		t.Fatalf("post-restart commit seq %d, want %d", newSeq, preSeq+1)
	}
	if seq := applyFrame(t, readSSE(t, sc2, 1)[0], acc, np); seq != newSeq {
		t.Fatalf("post-restart delta seq %d, want %d", seq, newSeq)
	}
	_, body = do(t, client2, "GET", ts2.URL+"/v1/patterns/s/result", "")
	if !acc.Equal(pairsOf(t, body["pairs"], np)) {
		t.Fatal("cross-restart accumulation diverges from /result")
	}
}
