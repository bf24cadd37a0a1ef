package client

import (
	"context"
	"time"

	"gpm"
)

// CommitEventType discriminates commit-stream events.
type CommitEventType string

const (
	// EventHead opens each connection: Seq names the sequence it starts
	// after, Head the server's head, and Patterns the pattern set as of
	// Head (no updates ride on it).
	EventHead CommitEventType = "head"
	// EventCommit carries one committed net update batch ΔG. Every commit
	// produces a frame — empty batches included — so Seq advances by
	// exactly one per commit event.
	EventCommit CommitEventType = "commit"
	// EventPatterns carries the whole pattern set as of Seq, the commit
	// it follows; it does not advance the sequence.
	EventPatterns CommitEventType = "patterns"
)

// CommitStreamEvent is one typed commit-stream event. Trace is the
// commit span's W3C traceparent and At its publish timestamp (both zero
// for head and patterns frames, unsampled commits, and backfilled events)
// — a follower passes Trace to ApplyReplicated so the leader's trace
// continues across the topology.
type CommitStreamEvent struct {
	Type    CommitEventType
	Seq     uint64
	Updates []gpm.Update // commit only
	// Head is the server's head sequence: at attach on a head, when it
	// sent the frame on a commit (Head - Seq is how far this consumer
	// trails it).
	Head     uint64
	Trace    string
	At       time.Time
	Patterns []PatternDef // head and patterns only
}

// CommitStream is a live raw-ΔG subscription to GET /v1/commits/stream —
// the feed a follower replica applies. Commit events arrive on C in
// commit order with consecutive sequence numbers. Each connection opens
// with a head event carrying the pattern set as of the server's head at
// attach — the backfilled commits up to that head follow it, and pattern
// changes among them are not replayed: the set stands for them — and a
// patterns event follows every later pattern change, in order with the
// commits. Like Stream, it survives disconnects and server restarts by
// reconnecting with exponential backoff and resuming via Last-Event-ID,
// deduplicating any overlap.
//
// C closes when the stream ends: context canceled, Close called, or a
// terminal server answer. Err reports the cause; an error wrapping
// ErrCompacted means the server's journal no longer retains the range
// after our cursor — re-bootstrap from Snapshot, there is no rebase on
// this endpoint.
type CommitStream struct {
	C <-chan CommitStreamEvent
	*sseStream[CommitStreamEvent]
}

// CommitStream opens a raw-ΔG subscription. With FromSeq(n) the commits
// in (n, head] are backfilled first; without it the stream starts at the
// current head. The first connection is established synchronously, so an
// immediately-terminal condition (compacted resume point, future seq)
// fails here — check errors.Is(err, ErrCompacted) to distinguish the
// re-bootstrap case.
func (c *Client) CommitStream(ctx context.Context, options ...StreamOption) (*CommitStream, error) {
	s, err := openSSE(ctx, c, c.base+"/v1/commits/stream",
		[2]string{"stream", "commits"}, options, decodeCommitFrame)
	if err != nil {
		return nil, err
	}
	return &CommitStream{C: s.ch, sseStream: s}, nil
}

// HeadFrame is the data of a commit stream's head frame: the sequence
// the stream starts after, the server's head and every registered
// pattern's definition as of that head ([] when none is).
type HeadFrame struct {
	Seq      uint64       `json:"seq"`
	Head     uint64       `json:"head"`
	Patterns []PatternDef `json:"patterns"`
}

// CommitFrame is the data of a commit stream's commit frame: one Commit
// (Updates [] when the net batch is empty) plus Head, the server's head
// sequence when it wrote the frame, and At, its publish time in UnixNano,
// omitted on backfilled frames.
type CommitFrame struct {
	Commit
	Head uint64 `json:"head"`
	At   int64  `json:"at,omitempty"`
}

// PatternsFrame is the data of a commit stream's patterns frame: every
// registered pattern's definition as of Seq ([] when none is).
type PatternsFrame struct {
	Seq      uint64       `json:"seq"`
	Patterns []PatternDef `json:"patterns"`
}

// decodeCommitFrame decodes the server's head, commit and patterns frames.
func decodeCommitFrame(event, data string) (f sseFrame[CommitStreamEvent], ok bool, err error) {
	switch t := CommitEventType(event); t {
	case EventHead:
		var doc HeadFrame
		err = decodeFrame(event, data, &doc)
		f = sseFrame[CommitStreamEvent]{kind: frameStart, seq: doc.Seq,
			ev: CommitStreamEvent{Type: t, Seq: doc.Seq, Head: doc.Head, Patterns: doc.Patterns}}
	case EventCommit:
		var doc CommitFrame
		err = decodeFrame(event, data, &doc)
		f = sseFrame[CommitStreamEvent]{kind: frameCommit, seq: doc.Seq, trace: doc.Trace, at: unixNano(doc.At),
			ev: CommitStreamEvent{Type: t, Seq: doc.Seq, Updates: doc.Updates, Head: doc.Head, Trace: doc.Trace, At: unixNano(doc.At)}}
	case EventPatterns:
		var doc PatternsFrame
		err = decodeFrame(event, data, &doc)
		f = sseFrame[CommitStreamEvent]{kind: framePattern, seq: doc.Seq,
			ev: CommitStreamEvent{Type: t, Seq: doc.Seq, Patterns: doc.Patterns}}
	default:
		return f, false, nil
	}
	return f, err == nil, err
}
