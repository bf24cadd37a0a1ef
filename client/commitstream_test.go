package client_test

import (
	"context"
	"errors"
	. "gpm/client"
	"net/http/httptest"
	"testing"
	"time"

	"gpm"
	"gpm/internal/journal"
	"gpm/internal/serve"
)

// commitWorld spins up a server with a loaded graph, returning the client
// and the node ids of testWorld.
func commitWorld(t *testing.T, srv *serve.Server) (*Client, []gpm.NodeID) {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithBackoff(10*time.Millisecond, 100*time.Millisecond))
	g, _, ids := testWorld()
	if _, err := c.LoadGraph(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	return c, ids
}

// nextCommitEvent reads one event off the stream with a deadline.
func nextCommitEvent(t *testing.T, st *CommitStream) CommitStreamEvent {
	t.Helper()
	select {
	case ev, ok := <-st.C:
		if !ok {
			t.Fatalf("commit stream closed early: %v", st.Err())
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a commit event")
	}
	panic("unreachable")
}

// TestSnapshotAndPatternDef: the snapshot export round-trips the graph
// and pattern definitions through the typed client.
func TestSnapshotAndPatternDef(t *testing.T) {
	c, ids := commitWorld(t, serve.New())
	ctx := context.Background()
	_, p, _ := testWorld()
	if _, err := c.Register(ctx, "chain", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(ids[0], ids[2])}); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 1 {
		t.Fatalf("snapshot seq = %d, want 1", snap.Seq)
	}
	if snap.Graph.NumNodes() != 5 || snap.Graph.NumEdges() != 3 {
		t.Fatalf("snapshot graph = %d nodes %d edges, want 5/3", snap.Graph.NumNodes(), snap.Graph.NumEdges())
	}
	if len(snap.Patterns) != 1 || snap.Patterns[0].ID != "chain" || snap.Patterns[0].Def == "" {
		t.Fatalf("snapshot patterns = %+v", snap.Patterns)
	}

	pd, err := c.PatternDef(ctx, "chain")
	if err != nil || pd.Kind != "sim" || pd.Def != snap.Patterns[0].Def {
		t.Fatalf("PatternDef: %+v err %v", pd, err)
	}
	var apiErr *APIError
	if _, err := c.PatternDef(ctx, "missing"); !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound {
		t.Fatalf("missing PatternDef: %v", err)
	}
}

// TestCommitStreamDelivery: head frame first, then every commit in order
// — including batches that cancelled to nothing — with FromSeq backfill.
func TestCommitStreamDelivery(t *testing.T) {
	c, ids := commitWorld(t, serve.New())
	ctx := context.Background()
	boss, am2 := ids[0], ids[2]

	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(boss, am2)}); err != nil {
		t.Fatal(err)
	}
	st, err := c.CommitStream(ctx, FromSeq(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ev := nextCommitEvent(t, st); ev.Type != EventHead || ev.Seq != 0 {
		t.Fatalf("first event = %+v, want head at 0", ev)
	}
	if ev := nextCommitEvent(t, st); ev.Type != EventCommit || ev.Seq != 1 || len(ev.Updates) != 1 {
		t.Fatalf("backfilled commit = %+v, want seq 1 with 1 update", ev)
	}
	// A self-cancelling batch still advances the stream.
	if _, err := c.Apply(ctx, []gpm.Update{gpm.Delete(boss, am2), gpm.Insert(boss, am2)}); err != nil {
		t.Fatal(err)
	}
	if ev := nextCommitEvent(t, st); ev.Type != EventCommit || ev.Seq != 2 || len(ev.Updates) != 0 {
		t.Fatalf("empty commit = %+v, want seq 2 with 0 updates", ev)
	}
}

// TestCommitStreamCompactedTerminal is the satellite regression: a resume
// point the journal no longer retains must end the stream with a typed
// error wrapping ErrCompacted — the re-bootstrap signal — not a silent
// channel close or an endless reconnect loop.
func TestCommitStreamCompactedTerminal(t *testing.T) {
	srv, err := serve.NewWithJournal(journal.New(journal.WithRing(1)))
	if err != nil {
		t.Fatal(err)
	}
	c, ids := commitWorld(t, srv)
	ctx := context.Background()
	boss, am2 := ids[0], ids[2]
	for i := 0; i < 4; i++ {
		if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(boss, am2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Apply(ctx, []gpm.Update{gpm.Delete(boss, am2)}); err != nil {
			t.Fatal(err)
		}
	}
	// Synchronous connect: the compacted answer surfaces typed right here.
	if _, err := c.CommitStream(ctx, FromSeq(1)); !errors.Is(err, ErrCompacted) {
		t.Fatalf("compacted CommitStream connect: %v, want ErrCompacted", err)
	}
	var apiErr *APIError
	if _, err := c.CommitStream(ctx, FromSeq(1)); !errors.As(err, &apiErr) || apiErr.Code != CodeCompacted {
		t.Fatalf("compacted CommitStream must keep the APIError in the chain: %v", err)
	}
}

// TestCommitStreamResume: a stream that loses its connection reconnects
// and resumes seq-contiguously with no duplicates.
func TestCommitStreamResume(t *testing.T) {
	srv := serve.New()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := New(ts.URL, WithBackoff(10*time.Millisecond, 50*time.Millisecond))
	ctx := context.Background()
	g, _, ids := testWorld()
	if _, err := c.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	boss, am2 := ids[0], ids[2]

	st, err := c.CommitStream(ctx, FromSeq(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ev := nextCommitEvent(t, st); ev.Type != EventHead {
		t.Fatalf("first event = %+v, want head", ev)
	}
	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(boss, am2)}); err != nil {
		t.Fatal(err)
	}
	if ev := nextCommitEvent(t, st); ev.Seq != 1 {
		t.Fatalf("commit = %+v, want seq 1", ev)
	}

	// Sever every open connection; the server itself stays up. The first
	// Apply may ride a just-severed keep-alive connection — retry it.
	ts.CloseClientConnections()
	for i := 0; ; i++ {
		if _, err := c.Apply(ctx, []gpm.Update{gpm.Delete(boss, am2)}); err == nil {
			break
		} else if i == 5 {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Every connection opens with a head naming the resume cursor.
	if ev := nextCommitEvent(t, st); ev.Type != EventHead || ev.Seq != 1 {
		t.Fatalf("post-reconnect head = %+v, want head at seq 1", ev)
	}
	if ev := nextCommitEvent(t, st); ev.Type != EventCommit || ev.Seq != 2 {
		t.Fatalf("post-reconnect commit = %+v, want seq 2 (no duplicates, no gaps)", ev)
	}
	if st.Stats().Connects < 2 {
		t.Fatalf("stats show %d connects, want a reconnect", st.Stats().Connects)
	}
}

// TestStreamCompactedTerminal is the match-delta side of the satellite
// fix: when the resume fallback path itself cannot rebase (the registry is
// gone mid-resume), Stream must end typed rather than silently. The
// common compacted case rebases via a snapshot frame, so here we assert
// the wrapper on the synchronous path using the commit-stream's server
// answer as the canonical 410 shape.
func TestStreamCompactedTerminal(t *testing.T) {
	err := TerminalErr(&APIError{Status: 410, Code: CodeCompacted, Message: "gone"})
	if !errors.Is(err, ErrCompacted) {
		t.Fatalf("terminalErr must wrap compacted envelopes: %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 410 {
		t.Fatalf("terminalErr must keep the APIError: %v", err)
	}
	if other := TerminalErr(&APIError{Status: 404, Code: CodeNotFound}); errors.Is(other, ErrCompacted) {
		t.Fatalf("non-compacted errors must pass through unwrapped: %v", other)
	}
}
