package client

import (
	"context"
	"time"

	"gpm"
)

// CommitEventType discriminates commit-stream events.
type CommitEventType string

const (
	// EventHead is the stream's opening frame: Seq names the sequence the
	// stream starts after (no updates ride on it).
	EventHead CommitEventType = "head"
	// EventCommit carries one committed net update batch ΔG. Every commit
	// produces a frame — empty batches included — so Seq advances by
	// exactly one per event.
	EventCommit CommitEventType = "commit"
)

// CommitStreamEvent is one typed commit-stream event. Trace is the
// commit span's W3C traceparent and At its publish timestamp (both zero
// for head frames, unsampled commits, and backfilled events) — a
// follower passes Trace to ApplyReplicated so the leader's trace
// continues across the topology.
type CommitStreamEvent struct {
	Type    CommitEventType
	Seq     uint64
	Updates []gpm.Update // commit only
	Trace   string
	At      time.Time
}

// CommitStream is a live raw-ΔG subscription to GET /v1/commits/stream —
// the feed a follower replica applies. Events arrive on C in commit order
// with consecutive sequence numbers. Like Stream, it survives disconnects
// and server restarts by reconnecting with exponential backoff and
// resuming via Last-Event-ID, deduplicating any overlap; the head frame
// is delivered once, not per reconnect.
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
// the stream starts after.
type HeadFrame struct {
	Seq uint64 `json:"seq"`
}

// CommitFrame is the data of a commit stream's commit frame: one Commit
// (Updates [] when the net batch is empty) plus At, its publish time in
// UnixNano, omitted on backfilled frames.
type CommitFrame struct {
	Commit
	At int64 `json:"at,omitempty"`
}

// decodeCommitFrame decodes the server's head and commit frames.
func decodeCommitFrame(event, data string) (f sseFrame[CommitStreamEvent], ok bool, err error) {
	switch CommitEventType(event) {
	case EventHead:
		var doc HeadFrame
		err = decodeFrame(event, data, &doc)
		f = sseFrame[CommitStreamEvent]{kind: frameStart, seq: doc.Seq, ev: CommitStreamEvent{Type: EventHead, Seq: doc.Seq}}
	case EventCommit:
		var doc CommitFrame
		err = decodeFrame(event, data, &doc)
		f = sseFrame[CommitStreamEvent]{kind: frameCommit, seq: doc.Seq, trace: doc.Trace, at: unixNano(doc.At),
			ev: CommitStreamEvent{Type: EventCommit, Seq: doc.Seq, Updates: doc.Updates, Trace: doc.Trace, At: unixNano(doc.At)}}
	default:
		return f, false, nil
	}
	return f, err == nil, err
}
