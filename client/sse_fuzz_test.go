package client

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// chunkReader hands out at most n bytes per Read, so frames arrive split
// across reads the way a slow connection delivers them.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// consumeAll runs wire through the shared frame scanner with one decoder
// and returns what a consumer would have received on C.
func consumeAll[E any](wire []byte, chunk int, decode func(event, data string) (sseFrame[E], bool, error)) []E {
	s := &sseStream[E]{c: New("http://fuzz.invalid"), decode: decode, ch: make(chan E)}
	var got []E
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range s.ch {
			got = append(got, ev)
		}
	}()
	// An error is a protocol violation ending the stream — a legal outcome
	// for arbitrary bytes; what was delivered before it must still hold.
	s.consume(context.Background(), io.NopCloser(chunkReader{bytes.NewReader(wire), chunk})) //nolint:errcheck // see above
	close(s.ch)
	<-done
	return got
}

// FuzzSSEFrames feeds arbitrary bytes through the one SSE frame scanner
// with both decoders: it must not panic, must ignore unknown event types,
// and must never deliver a commit-level sequence at or below the cursor;
// pattern sets never move it.
func FuzzSSEFrames(f *testing.F) {
	const (
		snapshot = "event: snapshot\nid: 4\ndata: {\"id\":\"q\",\"seq\":4,\"size\":1,\"pairs\":[[0,1]]}\n\n"
		delta5   = "event: delta\nid: 5\ndata: {\"id\":\"q\",\"seq\":5,\"added\":[[1,2]],\"removed\":[],\"at\":1700000000000000000}\n\n"
		head     = "event: head\nid: 4\ndata: {\"seq\":4}\n\n"
		commit5  = "event: commit\nid: 5\ndata: {\"seq\":5,\"updates\":[{\"op\":\"insert\",\"from\":1,\"to\":2}],\"trace\":\"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\"}\n\n"
		unknown  = "event: keepalive\nid: 9\ndata: {\"seq\":9}\n\n"
		patterns = "event: patterns\nid: 5\ndata: {\"seq\":5,\"patterns\":[{\"id\":\"r\",\"kind\":\"sim\",\"def\":\"node 0\\n\",\"reg_seq\":5}]}\n\n"
		none     = "event: patterns\nid: 5\ndata: {\"seq\":5,\"patterns\":[]}\n\n"
	)
	f.Add([]byte(snapshot+delta5), uint8(0))
	f.Add([]byte(head+commit5), uint8(0))
	f.Add([]byte(snapshot+delta5+head+commit5), uint8(3))                                           // frames split across reads
	f.Add([]byte(snapshot+unknown+delta5+head+unknown+commit5), uint8(0))                           // unknown event type
	f.Add([]byte(delta5+delta5+commit5+commit5+head+head), uint8(7))                                // duplicate seq, repeated head
	f.Add([]byte("event: delta\ndata: {\"seq\":5}\nevent: delta\ndata: {\"seq\":6}\n\n"), uint8(0)) // missing blank line
	f.Add([]byte("event: delta\ndata: {not json}\n\n"+delta5), uint8(0))
	f.Add([]byte("data: {\"seq\":1}\n\n\n: comment\nevent: \n\n"), uint8(1))
	f.Add([]byte(head+commit5+patterns+none+commit5+patterns), uint8(5)) // pattern sets between commits

	f.Fuzz(func(t *testing.T, wire []byte, chunk uint8) {
		n := int(chunk) + 1
		var cur uint64
		have := false
		for _, ev := range consumeAll(wire, n, decodeMatchFrame) {
			switch ev.Type {
			case EventSnapshot: // a rebase: may move the cursor either way
			case EventDelta:
				if have && ev.Seq <= cur {
					t.Fatalf("delta seq %d delivered at cursor %d", ev.Seq, cur)
				}
			default:
				t.Fatalf("unknown event type %q delivered", ev.Type)
			}
			cur, have = ev.Seq, true
		}
		cur, have = 0, false
		heads := 0
		for _, ev := range consumeAll(wire, n, decodeCommitFrame) {
			switch ev.Type {
			case EventHead:
				if heads++; heads > 1 {
					t.Fatal("head frame delivered twice")
				}
				if have {
					continue // a late head does not move the cursor
				}
			case EventCommit:
				if have && ev.Seq <= cur {
					t.Fatalf("commit seq %d delivered at cursor %d", ev.Seq, cur)
				}
			case EventPatterns:
				continue // a pattern set does not move the cursor
			default:
				t.Fatalf("unknown event type %q delivered", ev.Type)
			}
			cur, have = ev.Seq, true
		}
	})
}
