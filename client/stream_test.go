package client_test

import (
	"context"
	. "gpm/client"
	"net"
	"net/http"
	"testing"
	"time"

	"gpm"
	"gpm/internal/journal"
	"gpm/internal/serve"
)

// runningServer is one live gpserve instance over a durable journal.
type runningServer struct {
	srv *serve.Server
	hs  *http.Server
	j   *journal.Journal
}

// startServer opens the journal in dir and serves on addr ("" picks a
// port; the chosen address is returned).
func startServer(t *testing.T, dir, addr string) (*runningServer, string) {
	t.Helper()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewWithJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// The restart races the OS releasing the old listener; retry briefly.
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck // closed on shutdown
	return &runningServer{srv: srv, hs: hs, j: j}, ln.Addr().String()
}

// stop kills the instance the way gpserve's SIGTERM path does: listener
// first, then the registry, then the journal.
func (rs *runningServer) stop(t *testing.T) {
	t.Helper()
	rs.hs.Close() //nolint:errcheck // dropping connections is the point
	rs.srv.Close()
	if err := rs.j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamResumesAcrossRestart is the SDK's resume acceptance: a
// stream opened before a server restart keeps delivering afterwards with
// no missed and no duplicated deltas — consecutive sequence numbers
// across the kill — and the accumulated state matches the live result.
func TestStreamResumesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	first, addr := startServer(t, dir, "")
	c := New("http://"+addr, WithBackoff(20*time.Millisecond, 200*time.Millisecond))

	g, p, ids := testWorld()
	boss, am1, am2, c1, c2 := ids[0], ids[1], ids[2], ids[3], ids[4]
	if _, err := c.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, "chain", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stream(ctx, "chain")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	acc := map[gpm.Pair]bool{}
	ev := <-st.C
	if ev.Type != EventSnapshot {
		t.Fatalf("first event %+v", ev)
	}
	accumulate(acc, ev)
	lastSeq := ev.Seq

	// Two commits delivered live.
	preBatches := [][]gpm.Update{
		{gpm.Insert(boss, am2), gpm.Insert(am2, c2)},
		{gpm.Delete(am1, c1)},
	}
	for _, b := range preBatches {
		if _, err := c.Apply(ctx, b); err != nil {
			t.Fatal(err)
		}
		ev := <-st.C
		if ev.Type != EventDelta || ev.Seq != lastSeq+1 {
			t.Fatalf("pre-restart delta %+v after seq %d", ev, lastSeq)
		}
		lastSeq = ev.Seq
		accumulate(acc, ev)
	}

	// Kill the server mid-stream and restart it from the journal on the
	// same address. The stream's connection drops; its auto-reconnect
	// must ride through the refused connections while the server is down.
	first.stop(t)
	second, _ := startServer(t, dir, addr)
	defer second.stop(t)

	// The restarted instance recovered the world.
	info, err := c.GraphInfo(ctx)
	if err != nil || info.Seq != 2 || info.Patterns != 1 {
		t.Fatalf("recovered info %+v err %v", info, err)
	}

	// Post-restart commits flow into the same stream — seq-contiguous
	// with the pre-restart deltas, nothing missed, nothing duplicated,
	// and no snapshot rebase (the journal retained the whole range).
	postBatches := [][]gpm.Update{
		{gpm.Insert(am1, c2)},
		{gpm.Delete(boss, am2)},
		{gpm.Insert(am1, c1)},
	}
	for _, b := range postBatches {
		if _, err := c.Apply(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(postBatches); i++ {
		select {
		case ev := <-st.C:
			if ev.Type != EventDelta {
				t.Fatalf("post-restart event %d is %+v, want delta (journal retained the range)", i, ev)
			}
			if ev.Seq != lastSeq+1 {
				t.Fatalf("seq %d after %d: resume missed or duplicated a delta", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			accumulate(acc, ev)
		case <-time.After(10 * time.Second):
			t.Fatalf("no post-restart delta %d within 10s", i)
		}
	}
	if lastSeq != 5 {
		t.Fatalf("final seq %d, want 5", lastSeq)
	}

	// Snapshot ⊕ all deltas (across the restart) equals the live result.
	res, err := c.Result(ctx, "chain")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(acc) {
		t.Fatalf("accumulated %d pairs, live %d", len(acc), len(res.Pairs))
	}
	for _, pr := range res.Pairs {
		if !acc[pr] {
			t.Fatalf("pair %+v live but not accumulated", pr)
		}
	}
}

// TestStreamFromSeq: a consumer that already holds the relation at seq n
// resumes without a snapshot and receives exactly (n, head] then live
// deltas.
func TestStreamFromSeq(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	rs, addr := startServer(t, dir, "")
	defer rs.stop(t)
	c := New("http://" + addr)

	g, p, ids := testWorld()
	boss, am1, am2, c2 := ids[0], ids[1], ids[2], ids[4]
	if _, err := c.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, "chain", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}
	for i, b := range [][]gpm.Update{
		{gpm.Insert(boss, am2)},
		{gpm.Insert(am2, c2)},
		{gpm.Delete(am1, ids[3])},
	} {
		if seq, err := c.Apply(ctx, b); err != nil || seq != uint64(i+1) {
			t.Fatalf("apply %d: seq=%d err=%v", i, seq, err)
		}
	}

	st, err := c.Stream(ctx, "chain", FromSeq(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for want := uint64(2); want <= 3; want++ {
		ev := <-st.C
		if ev.Type != EventDelta || ev.Seq != want {
			t.Fatalf("backfilled event %+v, want delta seq %d", ev, want)
		}
	}
	// Live continuation after the backfill.
	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(am1, c2)}); err != nil {
		t.Fatal(err)
	}
	if ev := <-st.C; ev.Type != EventDelta || ev.Seq != 4 {
		t.Fatalf("live event after backfill: %+v", ev)
	}
}

// TestStreamRebasesAfterCompaction: when the resume point predates what
// the journal retains, the server falls back to a snapshot and the
// client surfaces it as an EventSnapshot rebase instead of erroring.
func TestStreamRebasesAfterCompaction(t *testing.T) {
	ctx := context.Background()
	// A tiny memory ring: only the 2 newest commits stay replayable.
	j := journal.New(journal.WithRing(2))
	srv, err := serve.NewWithJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck // closed below
	defer hs.Close()
	defer srv.Close()
	c := New("http://" + ln.Addr().String())

	g, p, ids := testWorld()
	boss, am2 := ids[0], ids[2]
	if _, err := c.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, "chain", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}
	edges := [][2]gpm.NodeID{{boss, am2}, {am2, ids[4]}, {am2, ids[3]}, {boss, ids[3]}}
	for _, e := range edges {
		if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(e[0], e[1])}); err != nil {
			t.Fatal(err)
		}
	}
	// Resume from seq 1: commits 2..4 exist but the ring only holds 3..4,
	// so the server must fall back to a snapshot at head.
	st, err := c.Stream(ctx, "chain", FromSeq(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ev := <-st.C
	if ev.Type != EventSnapshot || ev.Seq != 4 {
		t.Fatalf("compacted resume delivered %+v, want snapshot at head 4", ev)
	}
}

// TestStreamSurvivesServerDownAtOpen: Stream() against a down server
// enters the retry loop rather than failing, and connects once the
// server comes up — here a restart that recovers the pattern from its
// journal before the stream's next attempt succeeds.
func TestStreamSurvivesServerDownAtOpen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// Seed the journal with a world (graph + pattern), then go down.
	first, addr := startServer(t, dir, "")
	c := New("http://"+addr, WithBackoff(20*time.Millisecond, 100*time.Millisecond))
	g, p, _ := testWorld()
	if _, err := c.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, "late", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}
	first.stop(t)

	// Open the stream while nothing listens: it must not fail, only retry.
	st, err := c.Stream(ctx, "late")
	if err != nil {
		t.Fatalf("Stream against a down server must retry, got %v", err)
	}
	defer st.Close()

	second, _ := startServer(t, dir, addr)
	defer second.stop(t)
	select {
	case ev := <-st.C:
		if ev.Type != EventSnapshot {
			t.Fatalf("first event %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never connected after the server came up")
	}
}
