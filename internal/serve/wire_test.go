package serve

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"gpm/internal/contq"
	"gpm/internal/obs"
	"gpm/internal/obs/trace"
)

// TestWireDocumentKeys pins the /v1 documents the client SDK decodes: the
// exact JSON key set of every reply, error envelope and SSE frame kind;
// that empty pair and update lists encode as [] (never null or absent);
// that trace appears only on traced commits and at only on live events.
//
// The tracer samples no roots but continues every sampled caller trace,
// so traced and untraced commits interleave on one server.
func TestWireDocumentKeys(t *testing.T) {
	tr := trace.New(trace.Config{Mode: trace.ModeRatio, Ratio: 0})
	srv := New(contq.WithTracer(tr), contq.WithMetrics(obs.NewRegistry()))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	hc := ts.Client()
	docs := map[string]map[string]any{}
	req := func(name string, traced bool, method, path, body string) map[string]any {
		t.Helper()
		var doc map[string]any
		if traced {
			_, doc = doTraced(t, hc, method, ts.URL+path, body)
		} else {
			_, doc = do(t, hc, method, ts.URL+path, body)
		}
		docs[name] = doc
		return doc
	}
	open := func(path, lastEventID string) *bufio.Scanner {
		t.Helper()
		r, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID != "" {
			r.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := hc.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return bufio.NewScanner(resp.Body)
	}
	frame := func(name string, sc *bufio.Scanner, event string) {
		t.Helper()
		f := readSSE(t, sc, 1)[0]
		if f.event != event {
			t.Fatalf("%s: event %q, want %q", name, f.event, event)
		}
		docs[name] = f.data
	}

	req("POST /v1/graph", false, "POST", "/v1/graph",
		"node 0 label=\"a\"\nnode 1 label=\"b\"\nnode 2 label=\"c\"\nedge 0 1\n")
	req("PUT /v1/patterns/{id}", false, "PUT", "/v1/patterns/ab?kind=sim",
		"node 0 label=\"a\"\nnode 1 label=\"b\"\nedge 0 1\n")
	req("", false, "PUT", "/v1/patterns/none?kind=sim", "node 0 label=\"z\"\n")
	res := req("GET /v1/patterns/{id}/result", false, "GET", "/v1/patterns/ab/result", "")
	docs["GET /v1/patterns/{id}/result: pairs[0]"] = res["pairs"].([]any)[0].(map[string]any)

	// Live frames: the opening snapshot (of an empty result) and head,
	// then one untraced, one traced and one net-empty commit.
	live := open("/v1/patterns/none/stream", "")
	frame("snapshot frame", live, "snapshot")
	deltas := open("/v1/patterns/ab/stream", "")
	readSSE(t, deltas, 1)
	commits := open("/v1/commits/stream", "")
	frame("head frame", commits, "head")
	req("POST /v1/updates", false, "POST", "/v1/updates", "insert 1 2\n")
	req("", true, "POST", "/v1/updates", "delete 0 1\n")
	req("", false, "POST", "/v1/updates", "insert 0 2\ndelete 0 2\n")
	frame("delta frame", deltas, "delta")
	frame("delta frame, traced", deltas, "delta")
	frame("commit frame", commits, "commit")
	frame("commit frame, traced", commits, "commit")
	frame("commit frame, empty", commits, "commit")
	docs["commit frame: updates[0]"] = docs["commit frame"]["updates"].([]any)[0].(map[string]any)
	docs["head frame: patterns[0]"] = docs["head frame"]["patterns"].([]any)[0].(map[string]any)
	req("", false, "PUT", "/v1/patterns/extra?kind=sim", "node 0 label=\"c\"\n")
	frame("patterns frame", commits, "patterns")
	docs["patterns frame: patterns[0]"] = docs["patterns frame"]["patterns"].([]any)[0].(map[string]any)

	// Backfilled frames carry the journaled trace but no publish time.
	resumed := open("/v1/patterns/ab/stream", "1")
	frame("delta frame, backfilled traced", resumed, "delta")
	frame("delta frame, backfilled", resumed, "delta")
	resumed = open("/v1/commits/stream", "1")
	frame("", resumed, "head")
	frame("commit frame, backfilled traced", resumed, "commit")
	frame("commit frame, backfilled empty", resumed, "commit")

	req("GET /v1/graph", false, "GET", "/v1/graph", "")
	list := req("GET /v1/patterns", false, "GET", "/v1/patterns", "")
	docs["GET /v1/patterns: patterns[0]"] = list["patterns"].([]any)[0].(map[string]any)
	req("GET /v1/patterns/{id}", false, "GET", "/v1/patterns/ab", "")
	req("GET /v1/patterns/{id}/result, empty", false, "GET", "/v1/patterns/none/result", "")
	tail := req("GET /v1/commits", false, "GET", "/v1/commits?from=0", "")
	for i, name := range []string{"", ", traced", ", empty"} {
		docs["GET /v1/commits: commit"+name] = tail["commits"].([]any)[i].(map[string]any)
	}
	snap := req("GET /v1/snapshot", false, "GET", "/v1/snapshot", "")
	docs["GET /v1/snapshot: patterns[0]"] = snap["patterns"].([]any)[0].(map[string]any)
	req("GET /v1/stats", false, "GET", "/v1/stats", "")
	req("error envelope", false, "GET", "/v1/patterns/nope/result", "")
	req("error envelope, traced", true, "GET", "/v1/patterns/nope/result", "")

	follower := NewReadOnly("http://leader.invalid")
	ro := httptest.NewServer(follower)
	t.Cleanup(ro.Close)
	t.Cleanup(follower.Close)
	_, docs["error envelope, read_only"] = do(t, ro.Client(), "POST", ro.URL+"/v1/updates", "insert 0 1\n")
	empty, err := ro.Client().Get(ro.URL + "/v1/commits/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { empty.Body.Close() })
	frame("head frame, no patterns", bufio.NewScanner(empty.Body), "head")

	if err := srv.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	req("error envelope, journal_failed", false, "POST", "/v1/updates", "insert 0 2\n")
	req("error envelope, journal_failed traced", true, "POST", "/v1/updates", "insert 1 0\n")

	// keys is a document's exact key set; lists names the keys whose
	// value must be a JSON array (present even when empty), and empty the
	// ones among them this scenario leaves empty.
	for _, tc := range []struct {
		doc          string
		keys         string
		lists, empty string
	}{
		{"POST /v1/graph", "edges nodes patterns seq", "", ""},
		{"GET /v1/graph", "edges nodes patterns seq", "", ""},
		{"PUT /v1/patterns/{id}", "edges id kind nodes result_size subscribers", "", ""},
		{"GET /v1/patterns", "patterns", "patterns", ""},
		{"GET /v1/patterns: patterns[0]", "edges id kind nodes result_size subscribers", "", ""},
		{"GET /v1/patterns/{id}", "def id kind reg_seq", "", ""},
		{"GET /v1/patterns/{id}/result", "id pairs seq size", "pairs", ""},
		{"GET /v1/patterns/{id}/result: pairs[0]", "u v", "", ""},
		{"GET /v1/patterns/{id}/result, empty", "id pairs seq size", "pairs", "pairs"},
		{"POST /v1/updates", "seq updates", "", ""},
		{"GET /v1/commits", "commits from head", "commits", ""},
		{"GET /v1/commits: commit", "seq updates", "updates", ""},
		{"GET /v1/commits: commit, traced", "seq trace updates", "updates", ""},
		{"GET /v1/commits: commit, empty", "seq updates", "updates", "updates"},
		{"GET /v1/snapshot", "graph patterns seq", "patterns", ""},
		{"GET /v1/snapshot: patterns[0]", "def id kind reg_seq", "", ""},
		{"GET /v1/stats", "applies build coalesced_applies commits edges journal network nodes patterns patterns_evicted seq timings updates_applied updates_cancelled updates_submitted", "", ""},
		{"error envelope", "code message", "", ""},
		{"error envelope, traced", "code message trace_id", "", ""},
		{"error envelope, read_only", "code leader message", "", ""},
		{"error envelope, journal_failed", "code message seq", "", ""},
		{"error envelope, journal_failed traced", "code message seq trace_id", "", ""},
		{"snapshot frame", "id pairs seq size", "pairs", "pairs"},
		{"delta frame", "added at id removed seq", "added removed", "added removed"},
		{"delta frame, traced", "added at id removed seq trace", "added removed", "added"},
		{"delta frame, backfilled", "added id removed seq", "added removed", "added removed"},
		{"delta frame, backfilled traced", "added id removed seq trace", "added removed", "added"},
		{"head frame", "head patterns seq", "patterns", ""},
		{"head frame: patterns[0]", "def id kind reg_seq", "", ""},
		{"head frame, no patterns", "head patterns seq", "patterns", "patterns"},
		{"patterns frame", "patterns seq", "patterns", ""},
		{"patterns frame: patterns[0]", "def id kind reg_seq", "", ""},
		{"commit frame", "at head seq updates", "updates", ""},
		{"commit frame: updates[0]", "from op to", "", ""},
		{"commit frame, traced", "at head seq trace updates", "updates", ""},
		{"commit frame, empty", "at head seq updates", "updates", "updates"},
		{"commit frame, backfilled traced", "head seq trace updates", "updates", ""},
		{"commit frame, backfilled empty", "head seq updates", "updates", "updates"},
	} {
		t.Run(tc.doc, func(t *testing.T) {
			doc, ok := docs[tc.doc]
			if !ok {
				t.Fatal("document not captured")
			}
			got := make([]string, 0, len(doc))
			for k := range doc {
				got = append(got, k)
			}
			sort.Strings(got)
			if want := strings.Fields(tc.keys); !slices.Equal(got, want) {
				t.Fatalf("keys %v, want %v (document %v)", got, want, doc)
			}
			for _, k := range strings.Fields(tc.lists) {
				list, ok := doc[k].([]any)
				if !ok {
					t.Fatalf("%q is %#v, want a JSON array", k, doc[k])
				}
				if wantEmpty := slices.Contains(strings.Fields(tc.empty), k); (len(list) == 0) != wantEmpty {
					t.Fatalf("%q has %d elements, want empty=%v", k, len(list), wantEmpty)
				}
			}
		})
	}
}
