package client_test

import (
	"context"
	. "gpm/client"
	"testing"
	"time"

	"gpm"
)

// TestStreamStats exercises Stream.Stats across the stream's whole
// lifecycle: a healthy connection, a server restart (disconnect + failed
// retries with growing backoff + successful resume), and close.
func TestStreamStats(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	first, addr := startServer(t, dir, "")
	c := New("http://"+addr, WithBackoff(20*time.Millisecond, 200*time.Millisecond))

	g, p, ids := testWorld()
	boss, am2, c2 := ids[0], ids[2], ids[4]
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
	<-st.C // snapshot

	s := st.Stats()
	if s.Attempts != 1 || s.Connects != 1 || s.Disconnects != 0 || !s.Connected {
		t.Fatalf("after connect: %+v", s)
	}
	if s.EventsDelivered != 1 {
		t.Fatalf("snapshot not counted: %+v", s)
	}

	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(boss, am2)}); err != nil {
		t.Fatal(err)
	}
	ev := <-st.C
	s = st.Stats()
	if s.EventsDelivered != 2 || s.LastSeq != ev.Seq {
		t.Fatalf("after delta: %+v (delta seq %d)", s, ev.Seq)
	}

	// Kill the server: the stream sees a disconnect ("connection dropped"),
	// then failed dials against the dead address while we hold it down.
	// Wait until one failed dial has fully completed — its cause (a dial
	// error, not the drop message) is on record — before restarting, so
	// the failed-attempt assertion below cannot race an in-flight dial
	// that would succeed against the restarted listener.
	first.stop(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s = st.Stats()
		if s.Disconnects >= 1 && !s.Connected &&
			s.Attempts > s.Connects && s.LastDisconnect != "connection dropped" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no completed failed attempt observed: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.LastDisconnect == "" || s.LastDisconnectAt.IsZero() {
		t.Fatalf("disconnect cause not recorded: %+v", s)
	}
	if s.CurrentBackoff < 20*time.Millisecond || s.CurrentBackoff > 200*time.Millisecond {
		t.Fatalf("backoff %v outside configured [20ms, 200ms]", s.CurrentBackoff)
	}

	// Restart on the same address: the stream reconnects and resumes.
	second, _ := startServer(t, dir, addr)
	defer second.stop(t)
	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(am2, c2)}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev = <-st.C:
	case <-time.After(10 * time.Second):
		t.Fatal("no post-restart delta")
	}
	s = st.Stats()
	if !s.Connected || s.Connects < 2 {
		t.Fatalf("resume not reflected: %+v", s)
	}
	if s.Attempts <= s.Connects {
		t.Fatalf("failed attempts against the dead server not counted: %+v", s)
	}
	if s.LastSeq != ev.Seq || s.EventsDelivered != 3 {
		t.Fatalf("post-resume delivery: %+v (seq %d)", s, ev.Seq)
	}

	// Stats stay readable after Close.
	st.Close()
	if got := st.Stats(); got.EventsDelivered != 3 {
		t.Fatalf("stats after close: %+v", got)
	}
}

// TestStreamStatsTerminal checks a terminal server answer is recorded as
// the last disconnect cause.
func TestStreamStatsTerminal(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	rs, addr := startServer(t, dir, "")
	defer rs.stop(t)
	c := New("http://"+addr, WithBackoff(10*time.Millisecond, 50*time.Millisecond))

	g, p, _ := testWorld()
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
	<-st.C

	// Unregistering ends the stream server-side; the reconnect attempt
	// gets a terminal 404 and the stream dies with it on record.
	if err := c.Unregister(ctx, "chain"); err != nil {
		t.Fatal(err)
	}
	for range st.C {
	}
	s := st.Stats()
	if st.Err() == nil {
		t.Fatal("terminal stream has nil Err")
	}
	if s.LastDisconnect == "" {
		t.Fatalf("terminal cause not recorded: %+v", s)
	}
}
