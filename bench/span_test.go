package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Layer: benchLayer, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Layer: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Op: 0, Layer: "b", Start: 20, End: 50},        // overlaps span 1: counted once
		{ID: 3, Parent: 0, Op: 0, Layer: "a", Start: 90, End: 120},       // sticks out: clipped to the parent
		{ID: 4, Parent: 2, Op: 0, Layer: "c", Start: 25, End: 35},        // grandchild
		{ID: 5, Parent: -1, Op: -1, Layer: "probe", Start: 0, End: 1000}, // outside any op
	}
	self := selfTimes(spans)
	want := []int64{50, 20, 20, 30, 10, 1000}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want[i])
		}
	}
	shares := layerShares(spans)
	for layer, want := range map[string]float64{benchLayer: 0.5, "a": 0.5, "b": 0.2, "c": 0.1} {
		if !near(shares[layer], want) {
			t.Errorf("share of %s = %v, want %v", layer, shares[layer], want)
		}
	}
	if _, ok := shares["probe"]; ok {
		t.Error("a span outside any op must not enter the shares")
	}
	// 1 − (a + b + c): the sticking-out part of span 3 is attributed twice
	// over, which is why synthesized spans are clipped where they are made.
	if got := unattributedShare(spans); !near(got, 1-0.8) {
		t.Errorf("unattributed share = %v, want 0.2", got)
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	var none *tracer
	if id := none.start("x", "l", 0, -1, 0); id != -1 || none.active() {
		t.Error("a nil tracer must record nothing")
	}
	none.end(-1)
	tr := newTracer()
	if id := tr.start("x", "l", 0, -1, 0); id != -1 {
		t.Error("a tracer that is off must record nothing")
	}
	tr.enable(true)
	root := tr.start("op", benchLayer, 7, -1, 3)
	kid := tr.start("call", "layer", 7, root, 3)
	time.Sleep(time.Millisecond)
	tr.end(kid)
	tr.end(root)
	tr.enable(false)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Op != 7 || spans[1].dur() <= 0 {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if ns, units, count := byName(spans, "call"); ns != spans[1].dur() || units != 3 || count != 1 {
		t.Errorf("byName = %d %d %d", ns, units, count)
	}
}
