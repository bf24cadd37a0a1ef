package follow

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/obs"
	"gpm/internal/serve"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// startFollower wires a read-only server to a leader URL and returns the
// follower plus a client against the follower's own HTTP surface.
func startFollower(t *testing.T, leaderURL string) (*Follower, *client.Client) {
	t.Helper()
	fsrv := serve.NewReadOnly(leaderURL)
	fts := httptest.NewServer(fsrv)
	t.Cleanup(fts.Close)
	t.Cleanup(fsrv.Close)
	f := New(fsrv, Config{
		Leader:    leaderURL,
		MaxLag:    1 << 20, // readiness gates on bootstrap/connectivity here
		Reconcile: 20 * time.Millisecond,
		Logger:    quietLogger(),
		Metrics:   obs.NewRegistry(),
		ClientOptions: []client.Option{
			client.WithBackoff(10*time.Millisecond, 100*time.Millisecond),
		},
	})
	return f, client.New(fts.URL)
}

// storm applies n single-update batches generated against the leader's
// current graph (fetched via its own snapshot endpoint, like a real
// write-side peer would see it).
func storm(t *testing.T, lc *client.Client, nIns, nDel int, seed int64) {
	t.Helper()
	ctx := context.Background()
	snap, err := lc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range generator.Updates(snap.Graph, nIns, nDel, seed) {
		if _, err := lc.Apply(ctx, []gpm.Update{u}); err != nil {
			t.Fatalf("storm apply: %v", err)
		}
	}
}

// waitConverged blocks until the follower is ready, following, and has
// applied the leader's current head.
func waitConverged(t *testing.T, f *Follower, lc *client.Client) uint64 {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		info, err := lc.GraphInfo(context.Background())
		if err == nil {
			st := f.Stats()
			if st.State == "following" && st.AppliedSeq == info.Seq && f.Ready() == nil {
				return info.Seq
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never converged: %+v", f.Stats())
	return 0
}

func sortPairs(ps []gpm.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].U != ps[j].U {
			return ps[i].U < ps[j].U
		}
		return ps[i].V < ps[j].V
	})
}

// requireSameResult asserts leader and follower agree on one pattern's
// match relation at the same commit sequence.
func requireSameResult(t *testing.T, lc, fc *client.Client, id string, head uint64) {
	t.Helper()
	ctx := context.Background()
	lr, err := lc.Result(ctx, id)
	if err != nil {
		t.Fatalf("leader result %q: %v", id, err)
	}
	fr, err := fc.Result(ctx, id)
	if err != nil {
		t.Fatalf("follower result %q: %v", id, err)
	}
	if lr.Seq != head || fr.Seq != head {
		t.Fatalf("%q: result seqs %d/%d, want both at head %d", id, lr.Seq, fr.Seq, head)
	}
	if lr.Size != fr.Size {
		t.Fatalf("%q: follower relation size %d, leader %d", id, fr.Size, lr.Size)
	}
	sortPairs(lr.Pairs)
	sortPairs(fr.Pairs)
	for i := range lr.Pairs {
		if lr.Pairs[i] != fr.Pairs[i] {
			t.Fatalf("%q: follower pair %d = %+v, leader %+v", id, i, fr.Pairs[i], lr.Pairs[i])
		}
	}
}

// TestFollowerConvergence is the replication acceptance property over the
// wire: after an update storm with a mid-storm follower restart, the
// follower's served Result equals the leader's for every engine kind —
// including a pattern registered only after the follower was already
// tailing, mirrored by reconciliation.
func TestFollowerConvergence(t *testing.T) {
	seed := int64(47)
	lsrv := serve.New()
	lts := httptest.NewServer(lsrv)
	t.Cleanup(lts.Close)
	t.Cleanup(lsrv.Close)
	lc := client.New(lts.URL)
	ctx := context.Background()

	g := generator.Synthetic(50, 160, generator.DefaultSchema(3), seed)
	if _, err := lc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]gpm.EngineKind{
		"p-sim":  gpm.KindSim,
		"p-bsim": gpm.KindBSim,
		"p-iso":  gpm.KindIso,
	}
	for id, k := range kinds {
		nodes, edges, kb := 3, 3, 1
		if k == gpm.KindBSim {
			kb = 2
		}
		if k == gpm.KindIso {
			edges = 2 // keep the embedding search cheap
		}
		p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: nodes, Edges: edges, Preds: 1, K: kb}, seed)
		if _, err := lc.Register(ctx, id, p, k); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	storm(t, lc, 10, 6, seed+1) // pre-bootstrap history: the snapshot is mid-stream

	f, fc := startFollower(t, lts.URL)
	if err := f.Ready(); err == nil {
		t.Fatal("follower must report not-ready before bootstrapping")
	}
	ctx1, cancel1 := context.WithCancel(ctx)
	done1 := make(chan error, 1)
	go func() { done1 <- f.Run(ctx1) }()
	waitConverged(t, f, lc)

	storm(t, lc, 12, 8, seed+2) // phase 1: follower live-tailing

	// Mid-storm restart: stop the replication loop entirely...
	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	storm(t, lc, 12, 8, seed+3) // phase 2: follower offline, falls behind

	// ...and start it again: the surviving registry's commit stream
	// backfills what it missed rather than re-fetching the snapshot.
	ctx2, cancel2 := context.WithCancel(ctx)
	defer cancel2()
	done2 := make(chan error, 1)
	go func() { done2 <- f.Run(ctx2) }()
	t.Cleanup(func() { cancel2(); <-done2 })
	waitConverged(t, f, lc)
	if f.Stats().Bootstraps != 1 {
		t.Fatalf("restart took %d snapshot bootstraps, want 1 (catch-up path)", f.Stats().Bootstraps)
	}

	// A pattern registered after the follower is already tailing must be
	// mirrored by reconciliation.
	late := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, seed+9)
	if _, err := lc.Register(ctx, "p-late", late, gpm.KindSim); err != nil {
		t.Fatal(err)
	}
	kinds["p-late"] = gpm.KindSim
	storm(t, lc, 8, 4, seed+4) // phase 3: tail through more churn

	head := waitConverged(t, f, lc)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := fc.Result(ctx, "p-late"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late pattern never mirrored: %+v", f.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for id := range kinds {
		requireSameResult(t, lc, fc, id, head)
	}

	// The follower's own wire surface stays read-only throughout.
	var apiErr *client.APIError
	if _, err := fc.Apply(ctx, []gpm.Update{gpm.Insert(graph.NodeID(1), graph.NodeID(2))}); !errors.As(err, &apiErr) || apiErr.Code != client.CodeReadOnly || apiErr.Leader != lts.URL {
		t.Fatalf("follower write: %v, want read_only naming leader", err)
	}
}

// TestFollowerResyncAfterCompaction: when the leader compacts past the
// follower's cursor while it is offline, the restart re-bootstraps from a
// fresh snapshot instead of failing or serving stale state.
func TestFollowerResyncAfterCompaction(t *testing.T) {
	seed := int64(53)
	lsrv, err := serve.NewWithJournal(journal.New(journal.WithRing(2)))
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(lsrv)
	t.Cleanup(lts.Close)
	t.Cleanup(lsrv.Close)
	lc := client.New(lts.URL)
	ctx := context.Background()

	g := generator.Synthetic(30, 90, generator.DefaultSchema(2), seed)
	if _, err := lc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, seed)
	if _, err := lc.Register(ctx, "p", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}

	f, fc := startFollower(t, lts.URL)
	ctx1, cancel1 := context.WithCancel(ctx)
	done1 := make(chan error, 1)
	go func() { done1 <- f.Run(ctx1) }()
	waitConverged(t, f, lc)
	cancel1()
	<-done1

	// Offline churn far past the ring: the backfill range is compacted.
	storm(t, lc, 12, 8, seed+1)

	ctx2, cancel2 := context.WithCancel(ctx)
	done2 := make(chan error, 1)
	go func() { done2 <- f.Run(ctx2) }()
	t.Cleanup(func() { cancel2(); <-done2 })
	head := waitConverged(t, f, lc)
	if f.Stats().Bootstraps < 2 {
		t.Fatalf("compacted catch-up took %d bootstraps, want a snapshot re-sync", f.Stats().Bootstraps)
	}
	requireSameResult(t, lc, fc, "p", head)
}
