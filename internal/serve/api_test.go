package serve

import (
	"encoding/json"
	"gpm/client"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// loadedServer returns a test server with a graph and one registered
// sim pattern "q".
func loadedServer(t *testing.T) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	srv := New()
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
	return srv, ts, hc
}

// TestStatusConsistency is the failure-status contract, table-driven over
// every route: wrong methods are 405 envelopes with an Allow header,
// unknown pattern ids are 404 everywhere, bad kinds and bad documents are
// 400 envelopes with their distinct codes, unknown routes are 404.
func TestStatusConsistency(t *testing.T) {
	_, ts, hc := loadedServer(t)

	cases := []struct {
		name         string
		method, path string
		body         string
		wantStatus   int
		wantCode     string
		wantAllow    string
	}{
		// Wrong method on every route.
		{"graph wrong method", "DELETE", "/v1/graph", "", 405, client.CodeMethodNotAllowed, "GET, POST"},
		{"patterns wrong method", "POST", "/v1/patterns", "", 405, client.CodeMethodNotAllowed, "GET"},
		{"pattern wrong method", "POST", "/v1/patterns/q", "", 405, client.CodeMethodNotAllowed, "DELETE, GET, PUT"},
		{"result wrong method", "POST", "/v1/patterns/q/result", "", 405, client.CodeMethodNotAllowed, "GET"},
		{"stream wrong method", "PUT", "/v1/patterns/q/stream", "", 405, client.CodeMethodNotAllowed, "GET"},
		{"updates wrong method", "GET", "/v1/updates", "", 405, client.CodeMethodNotAllowed, "POST"},
		{"commits wrong method", "DELETE", "/v1/commits", "", 405, client.CodeMethodNotAllowed, "GET"},
		{"stats wrong method", "PUT", "/v1/stats", "", 405, client.CodeMethodNotAllowed, "GET"},
		{"healthz wrong method", "POST", "/v1/healthz", "", 405, client.CodeMethodNotAllowed, "GET"},
		{"readyz wrong method", "POST", "/v1/readyz", "", 405, client.CodeMethodNotAllowed, "GET"},

		// Unknown pattern id: 404 with not_found on every id-taking route.
		{"result unknown id", "GET", "/v1/patterns/none/result", "", 404, client.CodeNotFound, ""},
		{"unregister unknown id", "DELETE", "/v1/patterns/none", "", 404, client.CodeNotFound, ""},
		{"stream unknown id", "GET", "/v1/patterns/none/stream", "", 404, client.CodeNotFound, ""},

		// Bad request documents: 400 with the per-document code.
		{"bad graph", "POST", "/v1/graph", "node 0 bogus", 400, client.CodeInvalidGraph, ""},
		{"bad pattern", "PUT", "/v1/patterns/p2", "noise", 400, client.CodeInvalidPattern, ""},
		{"bad updates", "POST", "/v1/updates", "garbage", 400, client.CodeInvalidUpdates, ""},
		{"out-of-graph update", "POST", "/v1/updates", "insert 0 999999", 400, client.CodeInvalidUpdates, ""},

		// Bad kind and duplicate id.
		{"unknown kind", "PUT", "/v1/patterns/p3?kind=bogus", "node 0 true", 400, client.CodeInvalidKind, ""},
		{"duplicate id", "PUT", "/v1/patterns/q?kind=sim", "node 0 true", 409, client.CodeAlreadyRegistered, ""},

		// Bad resume sequences.
		{"bad from", "GET", "/v1/commits?from=x", "", 400, client.CodeInvalidSeq, ""},
		{"bad stream from", "GET", "/v1/patterns/q/stream?from=x", "", 400, client.CodeInvalidSeq, ""},
		{"future from", "GET", "/v1/commits?from=99", "", 400, client.CodeSeqFuture, ""},

		// Unknown routes.
		{"unknown route", "GET", "/v1/bogus", "", 404, client.CodeNotFound, ""},
		{"unknown root", "GET", "/nope", "", 404, client.CodeNotFound, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := hc.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
			}
			var body client.APIError
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error response is not an envelope: %v", err)
			}
			if body.Code != c.wantCode {
				t.Fatalf("code %q, want %q (message %q)", body.Code, c.wantCode, body.Message)
			}
			if body.Message == "" {
				t.Fatal("envelope without a message")
			}
			if c.wantAllow != "" && resp.Header.Get("Allow") != c.wantAllow {
				t.Fatalf("Allow %q, want %q", resp.Header.Get("Allow"), c.wantAllow)
			}
		})
	}

	// The iso-over-bounded mismatch is also invalid_kind, not a generic 400.
	g, _ := testGraphText(t, 11)
	code, body := do(t, hc, "PUT", ts.URL+"/v1/patterns/p4?kind=iso", testPatternText(t, g, 2, 12))
	if code != 400 || body["code"] != client.CodeInvalidKind {
		t.Fatalf("iso over bounded pattern: code %d body %v", code, body)
	}
}

// TestUnversionedPathsNotFound: the API lives under /v1 only — the paths
// the pre-/v1 server answered get the same 404 envelope as any unknown
// route, on every method.
func TestUnversionedPathsNotFound(t *testing.T) {
	_, ts, hc := loadedServer(t)
	for _, c := range []struct{ method, path string }{
		{"GET", "/graph"},
		{"DELETE", "/graph"},
		{"GET", "/patterns"},
		{"GET", "/patterns/q/result"},
		{"GET", "/patterns/q/stream"},
		{"GET", "/commits"},
		{"GET", "/stats"},
		{"POST", "/updates"},
		{"GET", "/healthz"},
		{"GET", "/metricz"},
	} {
		code, body := do(t, hc, c.method, ts.URL+c.path, "insert 0 1")
		if code != http.StatusNotFound || body["code"] != client.CodeNotFound || body["message"] == "" {
			t.Fatalf("%s %s: status %d body %v, want the 404 %s envelope", c.method, c.path, code, body, client.CodeNotFound)
		}
	}
	if _, info := do(t, hc, "GET", ts.URL+"/v1/graph", ""); info["seq"] != float64(0) {
		t.Fatalf("an unversioned POST /updates committed: %v", info)
	}
}

// TestHealthAndReadiness: healthz is unconditional liveness; readyz flips
// to 503 when the journal stops accepting appends and when the registry
// closes.
func TestHealthAndReadiness(t *testing.T) {
	srv, ts, hc := loadedServer(t)

	if code, body := do(t, hc, "GET", ts.URL+"/v1/healthz", ""); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
	code, body := do(t, hc, "GET", ts.URL+"/v1/readyz", "")
	if code != 200 || body["status"] != "ready" {
		t.Fatalf("readyz: %d %v", code, body)
	}

	// Kill the journal: commits keep applying in memory but are no longer
	// durable/replayable — the instance must stop reporting ready.
	if err := srv.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	code, body = do(t, hc, "GET", ts.URL+"/v1/readyz", "")
	if code != http.StatusServiceUnavailable || body["code"] != client.CodeNotReady {
		t.Fatalf("readyz with dead journal: %d %v", code, body)
	}
	// Liveness is unaffected.
	if code, _ := do(t, hc, "GET", ts.URL+"/v1/healthz", ""); code != 200 {
		t.Fatal("healthz must stay 200")
	}

	// A closed registry is equally not ready.
	srv.Close()
	code, body = do(t, hc, "GET", ts.URL+"/v1/readyz", "")
	if code != http.StatusServiceUnavailable || body["code"] != client.CodeNotReady {
		t.Fatalf("readyz after Close: %d %v", code, body)
	}
}

// TestJSONContentNegotiation drives the full session with JSON documents:
// graph load, pattern registration and update batches under Content-Type
// application/json, interleaved with text bodies — both formats feed the
// same registry.
func TestJSONContentNegotiation(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	hc := ts.Client()

	doJSON := func(method, url string, doc any) (int, map[string]any) {
		t.Helper()
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(method, url, strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // some bodies are empty
		return resp.StatusCode, out
	}

	// Build a small graph and pattern programmatically; ship them as JSON.
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddNode(graph.NewTuple("label", `"N`+string(rune('0'+i))+`"`))
	}
	g.AddEdge(0, 1) //nolint:errcheck // fresh nodes
	code, body := doJSON("POST", ts.URL+"/v1/graph", g)
	if code != http.StatusOK || body["nodes"].(float64) != 4 {
		t.Fatalf("JSON graph load: %d %v", code, body)
	}

	p := pattern.New()
	p.AddNode(pattern.Label("N0"))
	p.AddNode(pattern.Label("N1"))
	if err := p.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	code, body = doJSON("PUT", ts.URL+"/v1/patterns/j?kind=sim", p)
	if code != http.StatusCreated {
		t.Fatalf("JSON pattern register: %d %v", code, body)
	}

	// The initial result matches the one edge.
	code, body = do(t, hc, "GET", ts.URL+"/v1/patterns/j/result", "")
	if code != http.StatusOK || body["size"].(float64) != 2 {
		t.Fatalf("result after JSON setup: %d %v", code, body)
	}

	// JSON updates: remove the matched edge, add another.
	code, body = doJSON("POST", ts.URL+"/v1/updates", []graph.Update{
		graph.Delete(0, 1), graph.Insert(2, 3),
	})
	if code != http.StatusOK || body["seq"].(float64) != 1 {
		t.Fatalf("JSON updates: %d %v", code, body)
	}
	_, body = do(t, hc, "GET", ts.URL+"/v1/patterns/j/result", "")
	if body["size"].(float64) != 0 {
		t.Fatalf("result after JSON delete: %v", body)
	}

	// Text still works against the same state (curl compatibility).
	if code, _ := do(t, hc, "POST", ts.URL+"/v1/updates", "insert 0 1\n"); code != http.StatusOK {
		t.Fatal("text updates after JSON session failed")
	}
	_, body = do(t, hc, "GET", ts.URL+"/v1/patterns/j/result", "")
	if body["size"].(float64) != 2 {
		t.Fatalf("result after text insert: %v", body)
	}

	// Malformed JSON bodies get the per-document envelope codes.
	for _, c := range []struct {
		path, doc, wantCode string
	}{
		{"/v1/graph", `{"nodes":[{"id":5}],"edges":[]}`, client.CodeInvalidGraph},
		{"/v1/updates", `[{"op":"frobnicate","from":0,"to":1}]`, client.CodeInvalidUpdates},
	} {
		req, _ := http.NewRequest("POST", ts.URL+c.path, strings.NewReader(c.doc))
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env client.APIError
		json.NewDecoder(resp.Body).Decode(&env) //nolint:errcheck // envelope expected
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Code != c.wantCode {
			t.Fatalf("%s: %d %+v", c.path, resp.StatusCode, env)
		}
	}
	bad := `{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"bound":0}]}`
	req, _ := http.NewRequest("PUT", ts.URL+"/v1/patterns/x", strings.NewReader(bad))
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env client.APIError
	json.NewDecoder(resp.Body).Decode(&env) //nolint:errcheck // envelope expected
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Code != client.CodeInvalidPattern {
		t.Fatalf("bad JSON pattern: %d %+v", resp.StatusCode, env)
	}
}
