package client_test

import (
	"context"
	"errors"
	. "gpm/client"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpm"
	"gpm/internal/serve"
)

// testWorld builds a small social graph and a matching chain pattern.
func testWorld() (*gpm.Graph, *gpm.Pattern, []gpm.NodeID) {
	g := gpm.NewGraph()
	add := func(label string) gpm.NodeID {
		return g.AddNode(gpm.NewTuple("label", `"`+label+`"`))
	}
	boss := add("B")
	am1, am2 := add("AM"), add("AM")
	c1, c2 := add("C"), add("C")
	g.AddEdge(boss, am1)
	g.AddEdge(am1, c1)

	p := gpm.NewPattern()
	p.AddNode(gpm.Label("B"))
	p.AddNode(gpm.Label("AM"))
	p.AddNode(gpm.Label("C"))
	p.AddEdge(0, 1, 1) //nolint:errcheck // fresh nodes
	p.AddEdge(1, 2, 1) //nolint:errcheck // fresh nodes
	return g, p, []gpm.NodeID{boss, am1, am2, c1, c2}
}

// accumulate applies a delta event to a running pair-set.
func accumulate(acc map[gpm.Pair]bool, ev MatchEvent) {
	switch ev.Type {
	case EventSnapshot:
		for k := range acc {
			delete(acc, k)
		}
		for _, p := range ev.Pairs {
			acc[p] = true
		}
	case EventDelta:
		for _, p := range ev.Removed {
			delete(acc, p)
		}
		for _, p := range ev.Added {
			acc[p] = true
		}
	}
}

// TestClientEndToEnd drives every SDK method against a live server:
// graph load/info, register/list/result, typed apply, commits tail,
// stats, health, stream, unregister — and the typed error mapping.
func TestClientEndToEnd(t *testing.T) {
	srv := serve.New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()

	g, p, ids := testWorld()
	boss, am1, am2, c1, c2 := ids[0], ids[1], ids[2], ids[3], ids[4]

	// Health first: both probes green on a fresh server.
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Readyz(ctx); err != nil {
		t.Fatal(err)
	}

	// LoadGraph + GraphInfo.
	info, err := c.LoadGraph(ctx, g)
	if err != nil || info.Nodes != 5 || info.Edges != 2 {
		t.Fatalf("LoadGraph: %+v err %v", info, err)
	}
	info, err = c.GraphInfo(ctx)
	if err != nil || info.Nodes != 5 || info.Seq != 0 {
		t.Fatalf("GraphInfo: %+v err %v", info, err)
	}

	// Register + typed error mapping for the failure paths.
	pi, err := c.Register(ctx, "chain", p, gpm.KindAuto)
	if err != nil || pi.Nodes != 3 || pi.Edges != 2 {
		t.Fatalf("Register: %+v err %v", pi, err)
	}
	if pi.Kind != gpm.KindSim {
		t.Fatalf("Register resolved kind %q, want %q (auto over a normal pattern)", pi.Kind, gpm.KindSim)
	}
	var apiErr *APIError
	if _, err = c.Register(ctx, "chain", p, gpm.KindSim); !errors.As(err, &apiErr) ||
		apiErr.Code != CodeAlreadyRegistered || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate register: %v", err)
	}
	if _, err = c.Register(ctx, "bogus", p, gpm.EngineKind("nope")); !errors.As(err, &apiErr) ||
		apiErr.Code != CodeInvalidKind {
		t.Fatalf("bad kind: %v", err)
	}
	if _, err = c.Result(ctx, "missing"); !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound {
		t.Fatalf("missing result: %v", err)
	}

	pats, err := c.Patterns(ctx)
	if err != nil || len(pats) != 1 || pats[0].ID != "chain" {
		t.Fatalf("Patterns: %+v err %v", pats, err)
	}

	// Stream from scratch: snapshot, then one delta per commit.
	st, err := c.Stream(ctx, "chain")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	acc := map[gpm.Pair]bool{}
	ev := <-st.C
	if ev.Type != EventSnapshot || ev.Seq != 0 {
		t.Fatalf("first event: %+v", ev)
	}
	accumulate(acc, ev)

	// Typed applies: join a second chain, break the first.
	batches := [][]gpm.Update{
		{gpm.Insert(boss, am2), gpm.Insert(am2, c2)},
		{gpm.Delete(am1, c1)},
	}
	var lastSeq uint64
	for i, b := range batches {
		seq, err := c.Apply(ctx, b)
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("Apply %d: seq=%d err=%v", i, seq, err)
		}
		lastSeq = seq
		ev := <-st.C
		if ev.Type != EventDelta || ev.Seq != seq {
			t.Fatalf("delta %d: %+v", i, ev)
		}
		accumulate(acc, ev)
	}

	// Snapshot ⊕ deltas equals the live result.
	res, err := c.Result(ctx, "chain")
	if err != nil || res.Seq != lastSeq {
		t.Fatalf("Result: %+v err %v", res, err)
	}
	if len(res.Pairs) != len(acc) {
		t.Fatalf("accumulated %d pairs, live %d", len(acc), len(res.Pairs))
	}
	for _, pr := range res.Pairs {
		if !acc[pr] {
			t.Fatalf("pair %+v live but not accumulated", pr)
		}
	}

	// Commits: the raw ΔG tail round trips through the typed codec.
	tail, err := c.Commits(ctx, 0)
	if err != nil || tail.Head != lastSeq || len(tail.Commits) != 2 {
		t.Fatalf("Commits: %+v err %v", tail, err)
	}
	if got := tail.Commits[0].Updates; len(got) != 2 || got[0] != gpm.Insert(boss, am2) {
		t.Fatalf("commit 1 updates: %+v", got)
	}
	if _, err = c.Commits(ctx, lastSeq+10); !errors.As(err, &apiErr) || apiErr.Code != CodeSeqFuture {
		t.Fatalf("future commits: %v", err)
	}

	// Stats reflect the session.
	stats, err := c.Stats(ctx)
	if err != nil || stats.Seq != lastSeq || stats.Patterns != 1 {
		t.Fatalf("Stats: %+v err %v", stats, err)
	}
	if stats.Journal == nil || stats.Journal.HeadSeq != lastSeq {
		t.Fatalf("Stats journal: %+v", stats.Journal)
	}
	if stats.Network == nil || stats.Network.Patterns != 1 || stats.Network.JoinNodes != 1 {
		t.Fatalf("Stats network: %+v", stats.Network)
	}

	// Unregister closes the stream.
	if err := c.Unregister(ctx, "chain"); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-st.C:
		if ok {
			t.Fatal("stream event after unregister")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after unregister")
	}
	if err := c.Unregister(ctx, "chain"); !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound {
		t.Fatalf("double unregister: %v", err)
	}
}

// TestClientContextCancellation: every unary method returns promptly when
// its context dies mid-request, even against a server that never answers.
func TestClientContextCancellation(t *testing.T) {
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold every request until the client gives up. The release
		// channel lets Server.Close reclaim handlers whose disconnect the
		// server never notices (unread POST bodies suppress the
		// background connection watcher).
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer stuck.Close()
	defer close(release)
	c := New(stuck.URL, WithHTTPClient(stuck.Client()))

	g, p, _ := testWorld()
	calls := map[string]func(ctx context.Context) error{
		"LoadGraph":  func(ctx context.Context) error { _, err := c.LoadGraph(ctx, g); return err },
		"GraphInfo":  func(ctx context.Context) error { _, err := c.GraphInfo(ctx); return err },
		"Register":   func(ctx context.Context) error { _, err := c.Register(ctx, "x", p, gpm.KindAuto); return err },
		"Unregister": func(ctx context.Context) error { return c.Unregister(ctx, "x") },
		"Patterns":   func(ctx context.Context) error { _, err := c.Patterns(ctx); return err },
		"Result":     func(ctx context.Context) error { _, err := c.Result(ctx, "x"); return err },
		"Apply":      func(ctx context.Context) error { _, err := c.Apply(ctx, nil); return err },
		"Commits":    func(ctx context.Context) error { _, err := c.Commits(ctx, 0); return err },
		"Stats":      func(ctx context.Context) error { _, err := c.Stats(ctx); return err },
		"Healthz":    c.Healthz,
		"Readyz":     c.Readyz,
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := call(ctx)
			if err == nil {
				t.Fatal("call succeeded against a hung server")
			}
			if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
				t.Fatalf("error %v is not the context's", err)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("took %v to honor cancellation", elapsed)
			}
		})
	}

	// Stream cancellation: a stream over a live server ends promptly too.
	srv := serve.New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	live := New(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()
	if _, err := live.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Register(ctx, "q", p, gpm.KindAuto); err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithCancel(ctx)
	st, err := live.Stream(sctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	<-st.C // snapshot
	scancel()
	select {
	case _, ok := <-st.C:
		if ok {
			t.Fatal("event after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after context cancellation")
	}
	if st.Err() != nil {
		t.Fatalf("cancellation is not an error: %v", st.Err())
	}
}

// TestStreamTerminalOnUnknownPattern: a stream for a pattern that does
// not exist fails at Stream() with the typed 404 — no silent retry loop.
func TestStreamTerminalOnUnknownPattern(t *testing.T) {
	srv := serve.New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	var apiErr *APIError
	if _, err := c.Stream(context.Background(), "ghost"); !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound {
		t.Fatalf("stream of unknown pattern: %v", err)
	}
}
