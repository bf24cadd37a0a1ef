package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A target that stalls must not slow the schedule down, and the stall must
// be charged to the ops that were due while it lasted: their latency,
// counted from the due time, includes the wait, and the generator's own
// lateness is reported beside it.
func TestOpenLoopChargesAStallToLaterOps(t *testing.T) {
	const (
		rate  = 200.0 // one op every 5 ms
		stall = 60 * time.Millisecond
	)
	var calls atomic.Int32
	// One op in flight at a time, so a stalled target holds the next ops back.
	recs := openLoop(rate, 250*time.Millisecond, 1, func(due time.Time) opRec {
		rec := opRec{due: due, start: time.Now()}
		if calls.Add(1) == 3 {
			time.Sleep(stall)
		}
		rec.end = time.Now()
		return rec
	})
	if len(recs) != 50 {
		t.Fatalf("the schedule holds 50 ops, %d were sent: a stall must not thin the schedule", len(recs))
	}
	var late, charged int
	for _, r := range recs {
		if d := r.due.Sub(recs[0].due); d%(5*time.Millisecond) != 0 {
			t.Fatalf("op due at +%v: not on the 5 ms schedule", d)
		}
		if r.start.Sub(r.due) > 10*time.Millisecond {
			late++ // the generator could not send it on time
		}
		if r.end.Sub(r.from()) > 10*time.Millisecond {
			charged++ // its latency, from due time, carries the stall
		}
	}
	// The stall covers 12 due times; the ops behind it drain late too.
	if late < 8 {
		t.Errorf("%d ops reported lateness, want at least 8", late)
	}
	if charged < late {
		t.Errorf("%d ops were late but only %d were charged the wait", late, charged)
	}
	// Closed-loop accounting would have blamed one op only.
	if charged < 8 {
		t.Errorf("only %d ops were charged the stall", charged)
	}
}

func TestLatencyStartsAtDueTimeInAnOpenLoop(t *testing.T) {
	now := time.Now()
	closed := opRec{start: now}
	open := opRec{due: now.Add(-time.Second), start: now}
	if closed.from() != now || open.from() != now.Add(-time.Second) {
		t.Error("latency must start at submission in a closed loop and at the due time in an open one")
	}
}
