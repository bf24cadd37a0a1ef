package follow

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/generator"
	"gpm/internal/serve"
)

// gate holds a leader's commit-stream commit frames back: while shut,
// each one written needs a token.
type gate struct {
	mu     sync.Mutex
	opened chan struct{} // closed while commit frames flow freely
	tokens chan struct{}
}

func newGate() *gate {
	g := &gate{opened: make(chan struct{}), tokens: make(chan struct{}, 64)}
	close(g.opened)
	return g
}

func (g *gate) shut() {
	g.mu.Lock()
	g.opened = make(chan struct{})
	g.mu.Unlock()
}

func (g *gate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.opened:
	default:
		close(g.opened)
	}
}

// let admits n more commit frames while shut.
func (g *gate) let(n int) {
	for range n {
		g.tokens <- struct{}{}
	}
}

func (g *gate) pass(ctx context.Context) error {
	g.mu.Lock()
	opened := g.opened
	g.mu.Unlock()
	select {
	case <-opened:
		return nil
	case <-g.tokens:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// gatedWriter routes one response's commit frames through the gate.
type gatedWriter struct {
	http.ResponseWriter
	http.Flusher
	g   *gate
	ctx context.Context
}

func (w gatedWriter) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("event: commit\n")) {
		if err := w.g.pass(w.ctx); err != nil {
			return 0, err
		}
	}
	return w.ResponseWriter.Write(b)
}

// gatedLeader starts a leader over a synthetic graph with pattern "q"
// registered, its commit frames passing through g.
func gatedLeader(t *testing.T, seed int64) (lc *client.Client, g *gate, url string) {
	t.Helper()
	lsrv := serve.New()
	g = newGate()
	lts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/commits/stream" {
			w = gatedWriter{ResponseWriter: w, Flusher: w.(http.Flusher), g: g, ctx: r.Context()}
		}
		lsrv.ServeHTTP(w, r)
	}))
	t.Cleanup(lts.Close)
	t.Cleanup(lsrv.Close)
	t.Cleanup(g.open) // a held frame must not keep lts.Close waiting
	lc = client.New(lts.URL)
	ctx := context.Background()
	graph := generator.Synthetic(40, 130, generator.DefaultSchema(3), seed)
	if _, err := lc.LoadGraph(ctx, graph); err != nil {
		t.Fatal(err)
	}
	p := generator.EmbeddedPattern(graph, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, seed)
	if _, err := lc.Register(ctx, "q", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}
	return lc, g, lts.URL
}

// TestFollowerReportsLag: a follower held behind its leader reports the
// distance and is not ready under a small MaxLag — both when it trails a
// live stream and when it resumes behind a head it has yet to backfill —
// and is ready again once it catches up.
func TestFollowerReportsLag(t *testing.T) {
	seed := int64(79)
	lc, g, url := gatedLeader(t, seed)
	f, _ := startFollower(t, url)
	f.cfg.MaxLag = 3
	stop := run(f)
	t.Cleanup(func() { stop() })
	start := waitConverged(t, f, lc)

	// wantLag waits until the follower has applied applied and knows the
	// leader at leader, and checks that it says so.
	wantLag := func(applied, leader uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for st := f.Stats(); st.AppliedSeq != applied || st.LeaderSeq != leader; st = f.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("follower stats %+v, want applied %d of leader %d", st, applied, leader)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st := f.Stats(); st.Lag != leader-applied {
			t.Fatalf("lag %d, want %d: %+v", st.Lag, leader-applied, st)
		}
		if err := f.Ready(); err == nil || !strings.Contains(err.Error(), "lagging") {
			t.Fatalf("Ready() = %v, want a lag error", err)
		}
	}

	// Trailing a live stream: the leader commits ten batches while the
	// stream holds its frames; two pass.
	g.shut()
	storm(t, lc, 6, 4, seed+1)
	g.let(2)
	wantLag(start+2, start+10)
	g.open()
	head := waitConverged(t, f, lc)

	// Resuming behind the head: the replication loop restarts after the
	// leader moved on; one backfilled commit passes.
	stop()
	storm(t, lc, 5, 3, seed+2)
	g.shut()
	g.let(1)
	stop = run(f)
	wantLag(head+1, head+8)
	g.open()
	waitConverged(t, f, lc)
	if st := f.Stats(); st.Lag != 0 {
		t.Fatalf("caught-up follower reports lag %d", st.Lag)
	}
}

// TestFollowerResumesAcrossPatternChanges: a follower resuming behind a
// leader that registered one pattern and unregistered another meanwhile
// keeps its own set while the backfill is held — the head's set is as of
// the leader's head, which the replica has not reached — and holds the
// leader's set, with the leader's results, once it has.
func TestFollowerResumesAcrossPatternChanges(t *testing.T) {
	seed := int64(83)
	lc, g, url := gatedLeader(t, seed)
	f, fc := startFollower(t, url)
	stop := run(f)
	t.Cleanup(func() { stop() })
	waitConverged(t, f, lc)
	stop()

	ctx := context.Background()
	snap, err := lc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r := generator.EmbeddedPattern(snap.Graph, generator.PatternParams{Nodes: 3, Edges: 2, Preds: 1, K: 2}, seed+1)
	if _, err := lc.Register(ctx, "r", r, gpm.KindBSim); err != nil {
		t.Fatal(err)
	}
	storm(t, lc, 3, 2, seed+2)
	if err := lc.Unregister(ctx, "q"); err != nil {
		t.Fatal(err)
	}
	storm(t, lc, 2, 2, seed+3)

	g.shut()
	stop = run(f)
	deadline := time.Now().Add(10 * time.Second)
	for f.Stats().LeaderSeq <= f.Stats().AppliedSeq {
		if time.Now().After(deadline) {
			t.Fatalf("resumed follower never learned the leader's head: %+v", f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := fc.PatternDef(ctx, "q"); err != nil {
		t.Fatalf("q gone before the replica reached the head's seq: %v", err)
	}
	if _, err := fc.PatternDef(ctx, "r"); err == nil {
		t.Fatal("r registered before the replica reached the head's seq")
	}

	g.open()
	waitConverged(t, f, lc)
	// The set is mirrored right after the backfill's last commit applies;
	// one more commit orders the checks below after it.
	storm(t, lc, 1, 0, seed+4)
	head := waitConverged(t, f, lc)
	if _, err := fc.PatternDef(ctx, "q"); err == nil {
		t.Fatal("the follower kept q, which the leader unregistered")
	}
	lpd, err := lc.PatternDef(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if fpd, err := fc.PatternDef(ctx, "r"); err != nil || fpd != lpd {
		t.Fatalf("follower r = %+v (%v), leader's %+v", fpd, err, lpd)
	}
	requireSameResult(t, lc, fc, "r", head)
}
