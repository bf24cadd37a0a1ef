package serve

import (
	"bufio"
	"gpm/client"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpm/internal/contq"
	"gpm/internal/journal"
)

// TestSnapshotEndpoint: GET /v1/snapshot returns the graph document, the
// head sequence and every registered pattern's portable definition.
func TestSnapshotEndpoint(t *testing.T) {
	_, ts, hc := loadedServer(t)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", "insert 0 1\ninsert 1 2\n"); code != http.StatusOK {
		t.Fatal("updates failed")
	}
	code, body := do(t, hc, "GET", ts.URL+"/v1/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	if body["seq"].(float64) != 1 {
		t.Fatalf("snapshot seq = %v, want 1", body["seq"])
	}
	if _, ok := body["graph"].(map[string]any); !ok {
		t.Fatalf("snapshot graph missing: %T", body["graph"])
	}
	pats := body["patterns"].([]any)
	if len(pats) != 1 {
		t.Fatalf("snapshot patterns = %d, want 1", len(pats))
	}
	pd := pats[0].(map[string]any)
	if pd["id"] != "q" || pd["kind"] != "sim" || pd["def"].(string) == "" {
		t.Fatalf("snapshot pattern doc malformed: %v", pd)
	}
}

// TestPatternDefEndpoint: GET /v1/patterns/{id} serves one pattern's
// definition; unknown ids are 404.
func TestPatternDefEndpoint(t *testing.T) {
	_, ts, hc := loadedServer(t)
	code, body := do(t, hc, "GET", ts.URL+"/v1/patterns/q", "")
	if code != http.StatusOK || body["def"].(string) == "" || body["kind"] != "sim" {
		t.Fatalf("pattern def: status %d body %v", code, body)
	}
	if code, body := do(t, hc, "GET", ts.URL+"/v1/patterns/nope", ""); code != http.StatusNotFound || body["code"] != client.CodeNotFound {
		t.Fatalf("unknown pattern def: status %d body %v", code, body)
	}
}

// TestCommitStreamSSE: the commit tail serves a head frame, then one
// commit frame per committed batch, seq-contiguous, with resume via
// Last-Event-ID backfilling from the journal.
func TestCommitStreamSSE(t *testing.T) {
	_, ts, hc := loadedServer(t)
	for i := 0; i < 3; i++ {
		if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", "insert 0 1\ndelete 0 1\n"); code != http.StatusOK {
			t.Fatal("updates failed")
		}
	}

	// Resume from seq 1: commits 2 and 3 backfill, later ones arrive live.
	req, err := http.NewRequest("GET", ts.URL+"/v1/commits/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	frames := readSSE(t, sc, 3)
	if frames[0].event != "head" || frames[0].data["seq"].(float64) != 1 {
		t.Fatalf("first frame = %v, want head at seq 1", frames[0])
	}
	for i, want := range []float64{2, 3} {
		fr := frames[i+1]
		if fr.event != "commit" || fr.data["seq"].(float64) != want {
			t.Fatalf("frame %d = %v %v, want commit seq %v", i+1, fr.event, fr.data, want)
		}
		if _, ok := fr.data["updates"].([]any); !ok {
			t.Fatalf("commit frame %d carries no updates array: %v", i+1, fr.data)
		}
	}
	// A live commit lands on the open stream.
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", "insert 0 2\n"); code != http.StatusOK {
		t.Fatal("updates failed")
	}
	live := readSSE(t, sc, 1)
	if live[0].event != "commit" || live[0].data["seq"].(float64) != 4 {
		t.Fatalf("live frame = %v %v, want commit seq 4", live[0].event, live[0].data)
	}
}

// TestCommitStreamCompacted: a resume point the journal no longer retains
// answers 410 compacted before any frame — the re-bootstrap signal.
func TestCommitStreamCompacted(t *testing.T) {
	srv, err := NewWithJournal(journal.New(journal.WithRing(2)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	hc := ts.Client()
	_, gtext := testGraphText(t, 11)
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/graph", gtext); code != http.StatusOK {
		t.Fatal("load graph failed")
	}
	for i := 0; i < 5; i++ {
		if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", "insert 0 1\ndelete 0 1\n"); code != http.StatusOK {
			t.Fatal("updates failed")
		}
	}
	code, body := do(t, hc, "GET", ts.URL+"/v1/commits/stream?from=1", "")
	if code != http.StatusGone || body["code"] != client.CodeCompacted {
		t.Fatalf("compacted tail: status %d body %v, want 410 %s", code, body, client.CodeCompacted)
	}
}

// TestReadOnlyRejectsWrites: every mutating route on a follower answers
// 403 read_only naming the leader; reads still serve.
func TestReadOnlyRejectsWrites(t *testing.T) {
	const leader = "http://leader.example:8080"
	srv := NewReadOnly(leader)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	hc := ts.Client()

	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/graph", "node 0 true"},
		{"PUT", "/v1/patterns/p?kind=sim", "node 0 true"},
		{"DELETE", "/v1/patterns/p", ""},
		{"POST", "/v1/updates", "insert 0 1"},
	} {
		code, body := do(t, hc, c.method, ts.URL+c.path, c.body)
		if code != http.StatusForbidden || body["code"] != client.CodeReadOnly {
			t.Fatalf("%s %s: status %d body %v, want 403 %s", c.method, c.path, code, body, client.CodeReadOnly)
		}
		if body["leader"] != leader {
			t.Fatalf("%s %s: envelope leader = %v, want %s", c.method, c.path, body["leader"], leader)
		}
	}
	if code, _ := do(t, hc, "GET", ts.URL+"/v1/patterns", ""); code != http.StatusOK {
		t.Fatal("reads must serve on a follower")
	}
}

// TestSetRegistrySwapsState: installing a bootstrapped registry makes its
// state visible on the read routes, and the ready-check hook gates readyz.
func TestSetRegistrySwapsState(t *testing.T) {
	srv := NewReadOnly("http://leader.example")
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	hc := ts.Client()

	bootstrapping := true
	srv.SetReadyCheck(func() error {
		if bootstrapping {
			return errReadyNotBootstrapped
		}
		return nil
	})
	if code, body := do(t, hc, "GET", ts.URL+"/v1/readyz", ""); code != http.StatusServiceUnavailable || body["code"] != client.CodeNotReady {
		t.Fatalf("bootstrapping readyz: status %d body %v, want 503 %s", code, body, client.CodeNotReady)
	}

	g, _ := testGraphText(t, 11)
	nodes := g.NumNodes()
	j := journal.New()
	reg := contq.New(g, contq.WithJournal(j))
	srv.SetRegistry(reg, j)
	bootstrapping = false

	if code, body := do(t, hc, "GET", ts.URL+"/v1/readyz", ""); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("ready readyz: status %d body %v", code, body)
	}
	code, body := do(t, hc, "GET", ts.URL+"/v1/graph", "")
	if code != http.StatusOK || int(body["nodes"].(float64)) != nodes {
		t.Fatalf("graph info after swap: status %d body %v, want %d nodes", code, body, nodes)
	}

	// Stats carry the follower block when a provider is installed.
	srv.SetStatsExtra(func() any { return map[string]any{"leader": "http://leader.example"} })
	code, body = do(t, hc, "GET", ts.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if _, ok := body["follower"].(map[string]any); !ok {
		t.Fatalf("stats missing follower block: %v", body)
	}
}

var errReadyNotBootstrapped = &readyErr{"follower bootstrapping"}

type readyErr struct{ msg string }

func (e *readyErr) Error() string { return e.msg }

// TestSnapshotWrongMethod keeps the new routes on the uniform 405
// contract.
func TestSnapshotWrongMethod(t *testing.T) {
	_, ts, hc := loadedServer(t)
	req, err := http.NewRequest("POST", ts.URL+"/v1/snapshot", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("POST /v1/snapshot: status %d allow %q, want 405 GET", resp.StatusCode, resp.Header.Get("Allow"))
	}
}
