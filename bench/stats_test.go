package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {20, 1}, {21, 2}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
}

// One bad fifth must not move the reported percentile: that is the whole
// point of taking the percentile per window and the median across windows.
func TestWindowedIgnoresOneBadWindow(t *testing.T) {
	good := func() []float64 { return []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2} }
	windows := [][]float64{good(), good(), {50, 60, 70, 80, 90, 100, 110, 120, 130, 140}, good(), good()}
	if got := windowed(windows, 95); got != 2 {
		t.Errorf("windowed p95 = %v, want 2", got)
	}
	if got := windowed(windows, 50); got != 1 {
		t.Errorf("windowed p50 = %v, want 1", got)
	}
	// An empty window is left out, not counted as zero.
	if got := windowed([][]float64{nil, {4}, {6}, nil, {5}}, 50); got != 5 {
		t.Errorf("windowed over sparse windows = %v, want 5", got)
	}
	if n := sampleCount(windows); n != 50 {
		t.Errorf("sampleCount = %d, want 50", n)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, because that is how the driver computes a metric's spread.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) → [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// >>> statistics.quantiles([3, 1, 4, 1, 5], n=4) → [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
}

func TestWindowsCutAFifthInTimeOrder(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ss []sample
	for i := 999; i >= 0; i-- { // handed over out of order
		ss = append(ss, sample{t0.Add(time.Duration(i) * time.Millisecond), float64(i)})
	}
	ws := windows(ss)
	if len(ws) != 5 {
		t.Fatalf("1000 samples make %d windows, want 5 of 200", len(ws))
	}
	for i, w := range ws {
		if len(w) != 200 || w[0] != float64(200*i) || w[199] != float64(200*i+199) {
			t.Errorf("window %d holds %d samples from %v to %v", i, len(w), w[0], w[len(w)-1])
		}
	}
	if ws := windows(ss[:150]); len(ws) != 1 || len(ws[0]) != 150 {
		t.Error("fewer samples than a window holds must stay one window")
	}
	if windows(nil) != nil {
		t.Error("no samples, no windows")
	}
}

// A neighbour that is busy for most of a run, lengthening now the ops and
// now the recompute, must not move a *_vs_batch ratio as long as a tenth of
// the slices were quiet on either side; a slice without ops is left out.
func TestVsBatchReadsTheQuietSlices(t *testing.T) {
	var ss []slice
	for i := 0; i < 20; i++ {
		sl := slice{oracleMS: 10, phases: []phaseStats{{wall: 2 * time.Millisecond, ops: 1}}}
		switch {
		case i%5 == 1: // quiet
		case i%2 == 0:
			sl.phases[0].wall *= 3
		default:
			sl.oracleMS *= 2
		}
		ss = append(ss, sl)
	}
	ss = append(ss, slice{oracleMS: 1, phases: []phaseStats{{}}})
	ratio, n := vsBatch(ss, func(sl *slice) (float64, bool) {
		return ms(sl.phases[0].wall) / float64(max(1, sl.phases[0].ops)), sl.phases[0].ops > 0
	})
	if !near(ratio, 0.2) || n != 20 {
		t.Errorf("vsBatch = %v over %d slices, want 0.2 over 20", ratio, n)
	}
}
