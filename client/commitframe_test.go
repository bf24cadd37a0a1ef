package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCommitFrameDecoding: the head carries the server's head and the
// pattern set, commit frames the head as of their write, patterns frames
// decode to their set and leave the resume cursor where it was, and every
// connection delivers its own head.
func TestCommitFrameDecoding(t *testing.T) {
	const (
		head    = "event: head\nid: 4\ndata: {\"seq\":4,\"head\":6,\"patterns\":[{\"id\":\"q\",\"kind\":\"sim\",\"def\":\"node 0 label = \\\"a\\\"\\n\",\"reg_seq\":2}]}\n\n"
		pats    = "event: patterns\nid: 5\ndata: {\"seq\":5,\"patterns\":[{\"id\":\"r\",\"kind\":\"bsim\",\"def\":\"node 0\\n\",\"reg_seq\":5}]}\n\n"
		none    = "event: patterns\nid: 5\ndata: {\"seq\":5,\"patterns\":[]}\n\n"
		commit5 = "event: commit\nid: 5\ndata: {\"seq\":5,\"head\":7,\"updates\":[]}\n\n"
		commit4 = "event: commit\nid: 4\ndata: {\"seq\":4,\"head\":7,\"updates\":[]}\n\n"
	)
	s := &sseStream[CommitStreamEvent]{c: New("http://decode.invalid"), decode: decodeCommitFrame, ch: make(chan CommitStreamEvent)}
	var got []CommitStreamEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range s.ch {
			got = append(got, ev)
		}
	}()
	// Two connections: the second echoes the cursor in its head, replays
	// commit 4 (dropped as overlap) and goes on.
	for _, wire := range []string{head + head + commit5 + pats + none, head + commit4 + pats} {
		if _, err := s.consume(context.Background(), io.NopCloser(bytes.NewReader([]byte(wire)))); err != nil {
			t.Fatal(err)
		}
	}
	close(s.ch)
	<-done

	want := []struct {
		typ       CommitEventType
		seq, head uint64
		patterns  int
	}{
		{EventHead, 4, 6, 1}, {EventCommit, 5, 7, 0}, {EventPatterns, 5, 0, 1}, {EventPatterns, 5, 0, 0},
		{EventHead, 4, 6, 1}, {EventPatterns, 5, 0, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d events %+v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if ev := got[i]; ev.Type != w.typ || ev.Seq != w.seq || ev.Head != w.head || len(ev.Patterns) != w.patterns {
			t.Fatalf("event %d = %+v, want %s at %d (head %d) with %d patterns", i, ev, w.typ, w.seq, w.head, w.patterns)
		}
	}
	if pd := got[0].Patterns[0]; pd != (PatternDef{ID: "q", Kind: "sim", Def: "node 0 label = \"a\"\n", RegSeq: 2}) {
		t.Fatalf("head patterns %+v", got[0].Patterns)
	}
	if pd := got[2].Patterns[0]; pd != (PatternDef{ID: "r", Kind: "bsim", Def: "node 0\n", RegSeq: 5}) {
		t.Fatalf("patterns frame %+v", got[2].Patterns)
	}
	if got[3].Patterns == nil {
		t.Fatal("an empty pattern set must decode non-nil")
	}
	if st := s.Stats(); st.LastSeq != 5 || st.EventsDelivered != uint64(len(want)) {
		t.Fatalf("stats %+v, want cursor 5 after %d events", st, len(want))
	}
}

// TestCommitStreamStateOnlyConnectionsBackOff: a server that accepts the
// stream, sends its head and drops it, over and over, moves no cursor, so
// the reconnect delay doubles up to its cap instead of resetting.
func TestCommitStreamStateOnlyConnectionsBackOff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: head\nid: 3\ndata: {\"seq\":3,\"head\":3,\"patterns\":[]}\n\n") //nolint:errcheck // test server
	}))
	t.Cleanup(ts.Close)
	const floor, ceiling = 2 * time.Millisecond, 32 * time.Millisecond
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithBackoff(floor, ceiling))
	st, err := c.CommitStream(context.Background(), FromSeq(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	go func() {
		for range st.C {
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s := st.Stats(); s.CurrentBackoff != ceiling || s.Connects < 6; s = st.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("backoff never reached %v across head-only connections: %+v", ceiling, s)
		}
		time.Sleep(time.Millisecond)
	}
}
