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
		Leader:  leaderURL,
		MaxLag:  1 << 20, // readiness gates on bootstrap/connectivity here
		Logger:  quietLogger(),
		Metrics: obs.NewRegistry(),
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
// tailing, mirrored off the commit stream.
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
	// mirrored off the commit stream.
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

// leaderWithPattern starts a leader over a synthetic graph with pattern
// "q" registered, and a follower tailing it until the test ends.
func leaderWithPattern(t *testing.T, seed int64) (lc *client.Client, g *gpm.Graph, f *Follower, fc *client.Client) {
	t.Helper()
	lsrv := serve.New()
	lts := httptest.NewServer(lsrv)
	t.Cleanup(lts.Close)
	t.Cleanup(lsrv.Close)
	lc = client.New(lts.URL)
	ctx := context.Background()
	g = generator.Synthetic(40, 130, generator.DefaultSchema(3), seed)
	if _, err := lc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, seed)
	if _, err := lc.Register(ctx, "q", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}
	f, fc = startFollower(t, lts.URL)
	return lc, g, f, fc
}

// run drives f until the returned stop is called (more than once is
// fine).
func run(f *Follower) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx) //nolint:errcheck // Run only returns ctx.Err()
	}()
	return func() { cancel(); <-done }
}

// TestFollowerMirrorsPatternSwap: the leader unregisters q and registers
// a different q back to back; once the follower has applied the next
// commit it holds the new definition and serves the leader's result.
func TestFollowerMirrorsPatternSwap(t *testing.T) {
	seed := int64(71)
	lc, g, f, fc := leaderWithPattern(t, seed)
	t.Cleanup(run(f))
	waitConverged(t, f, lc)
	ctx := context.Background()
	before, err := fc.PatternDef(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}

	if err := lc.Unregister(ctx, "q"); err != nil {
		t.Fatal(err)
	}
	swapped := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 4, Edges: 4, Preds: 1, K: 2}, seed+5)
	if _, err := lc.Register(ctx, "q", swapped, gpm.KindBSim); err != nil {
		t.Fatal(err)
	}
	storm(t, lc, 3, 2, seed+1)
	head := waitConverged(t, f, lc)

	lpd, err := lc.PatternDef(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if lpd == before {
		t.Fatal("the swap must change q's definition")
	}
	if fpd, err := fc.PatternDef(ctx, "q"); err != nil || fpd != lpd {
		t.Fatalf("follower q = %+v (%v), leader's %+v", fpd, err, lpd)
	}
	requireSameResult(t, lc, fc, "q", head)
}

// TestFollowerRestartKeepsPatterns: restarting the replication loop over
// an unchanged pattern set registers nothing — a stream on the follower
// stays open across the restart and the follower's network neither gains
// nor reuses a pattern.
func TestFollowerRestartKeepsPatterns(t *testing.T) {
	seed := int64(73)
	lc, _, f, fc := leaderWithPattern(t, seed)
	stop := run(f)
	waitConverged(t, f, lc)
	ctx := context.Background()
	st, err := fc.Stream(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ev := <-st.C; ev.Type != client.EventSnapshot {
		t.Fatalf("first follower stream event %+v, want the snapshot", ev)
	}
	before, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	stop()
	t.Cleanup(run(f))
	storm(t, lc, 2, 1, seed+1)
	head := waitConverged(t, f, lc)
	for seq := uint64(0); seq < head; {
		select {
		case ev, ok := <-st.C:
			if !ok || ev.Type != client.EventDelta {
				t.Fatalf("follower stream delivered %+v (open %v) across the restart, want deltas only", ev, ok)
			}
			seq = ev.Seq
		case <-time.After(10 * time.Second):
			t.Fatalf("follower stream stalled before seq %d", head)
		}
	}
	if s := st.Stats(); s.Connects != 1 || s.Disconnects != 0 {
		t.Fatalf("follower stream reconnected across the restart: %+v", s)
	}
	after, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Network.Patterns != before.Network.Patterns || after.Network.RegisterReused != before.Network.RegisterReused {
		t.Fatalf("restart moved the follower's network: %+v → %+v", *before.Network, *after.Network)
	}
	if f.Stats().Bootstraps != 1 {
		t.Fatalf("restart took %d bootstraps, want 1", f.Stats().Bootstraps)
	}
}
