package client

import (
	"context"
	"net/url"
	"time"

	"gpm"
)

// EventType discriminates stream events.
type EventType string

const (
	// EventSnapshot carries a pattern's full match relation at Seq — the
	// stream's starting state, and the rebase signal after a resume the
	// server could no longer backfill (journal compacted): discard the
	// accumulated state and start over from Pairs.
	EventSnapshot EventType = "snapshot"
	// EventDelta carries one commit's match change ΔM.
	EventDelta EventType = "delta"
)

// MatchEvent is one typed stream event. For EventSnapshot, Pairs is the
// full relation at Seq; for EventDelta, Added and Removed are the
// commit's ΔM (either may be empty — every commit produces an event, so
// Seq advances by exactly one per delta).
type MatchEvent struct {
	Type    EventType
	Pattern string
	Seq     uint64
	Pairs   []gpm.Pair // snapshot only
	Added   []gpm.Pair // delta only
	Removed []gpm.Pair // delta only
	// Trace is the producing commit span's W3C traceparent and At its
	// publish timestamp; both are zero for snapshots, unsampled commits,
	// and backfilled (resumed) deltas.
	Trace string
	At    time.Time
}

// Stream is a live match-delta subscription. Events arrive on C in
// commit order with consecutive sequence numbers. The stream survives
// disconnects and server restarts: it reconnects with exponential
// backoff, resuming from the last delivered sequence via the SSE
// Last-Event-ID contract, and deduplicates any overlap — consumers never
// see a sequence twice or a gap without an interleaved EventSnapshot.
//
// C closes when the stream ends: context canceled, Close called, or a
// terminal server answer (pattern unregistered → "not_found", resume
// unresumable, or any other non-retryable APIError). Err reports the
// cause (nil after a plain Close or context cancellation).
type Stream struct {
	C <-chan MatchEvent
	*sseStream[MatchEvent]
}

// Stream opens a match-delta subscription for pattern id. The first
// connection is established synchronously, so an immediately-broken
// subscription (unknown pattern, unreachable server) fails here rather
// than on C. Events then flow on the returned stream's C until ctx is
// canceled, Close is called, or a terminal server condition ends it.
func (c *Client) Stream(ctx context.Context, id string, options ...StreamOption) (*Stream, error) {
	s, err := openSSE(ctx, c, c.base+"/v1/patterns/"+url.PathEscape(id)+"/stream",
		[2]string{"pattern", id}, options, decodeMatchFrame)
	if err != nil {
		return nil, err
	}
	return &Stream{C: s.ch, sseStream: s}, nil
}

// DeltaFrame is the data of a stream's delta frame: one commit's ΔM for
// pattern ID, with Added and Removed [] (never null) when empty. Trace
// and At (the publish time, UnixNano) are omitted when unset, as on
// backfilled frames.
type DeltaFrame struct {
	ID      string     `json:"id"`
	Seq     uint64     `json:"seq"`
	Added   []gpm.Pair `json:"added"`
	Removed []gpm.Pair `json:"removed"`
	Trace   string     `json:"trace,omitempty"`
	At      int64      `json:"at,omitempty"`
}

// decodeMatchFrame decodes the server's snapshot (a Result) and delta
// frames.
func decodeMatchFrame(event, data string) (f sseFrame[MatchEvent], ok bool, err error) {
	switch EventType(event) {
	case EventSnapshot:
		var doc Result
		err = decodeFrame(event, data, &doc)
		f = sseFrame[MatchEvent]{kind: frameRebase, seq: doc.Seq,
			ev: MatchEvent{Type: EventSnapshot, Pattern: doc.ID, Seq: doc.Seq, Pairs: doc.Pairs}}
	case EventDelta:
		var doc DeltaFrame
		err = decodeFrame(event, data, &doc)
		f = sseFrame[MatchEvent]{kind: frameCommit, seq: doc.Seq, trace: doc.Trace, at: unixNano(doc.At),
			ev: MatchEvent{Type: EventDelta, Pattern: doc.ID, Seq: doc.Seq, Added: doc.Added, Removed: doc.Removed,
				Trace: doc.Trace, At: unixNano(doc.At)}}
	default:
		return f, false, nil
	}
	return f, err == nil, err
}
