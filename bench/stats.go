package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule, or NaN for no samples. xs is left as it was.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// sample is one measured latency and when it was taken.
type sample struct {
	at time.Time
	ms float64
}

// windowSamples is the least number of samples a window keeps: a p95 then
// still has ten samples beyond it.
const windowSamples = 200

// windows cuts one fifth's samples, in time order, into as many windows as
// hold windowSamples each (one, if there are fewer).
func windows(ss []sample) [][]float64 {
	if len(ss) == 0 {
		return nil
	}
	sorted := append([]sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at.Before(sorted[j].at) })
	k := max(1, len(sorted)/windowSamples)
	out := make([][]float64, k)
	for i := range out {
		for _, s := range sorted[i*len(sorted)/k : (i+1)*len(sorted)/k] {
			out[i] = append(out[i], s.ms)
		}
	}
	return out
}

// windowed is the benchmark's latency estimator: the percentile is taken
// inside each window of the timed run — each fifth, cut further while 200
// samples remain per window — and the median over the windows is reported.
// A burst from a neighbour on a shared machine spoils the windows it
// covers and moves the median by a rank or two, which is what lets a p95
// repeat from run to run. Windows with no samples are left out.
func windowed(windows [][]float64, p float64) float64 {
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, percentile(w, p))
		}
	}
	return median(per)
}

func sampleCount(windows [][]float64) int {
	n := 0
	for _, w := range windows {
		n += len(w)
	}
	return n
}

// quartiles returns the first quartile, median and third quartile with the
// exclusive method, the one Python's statistics.quantiles(xs, n=4) uses, so
// that the spreads printed by -aa are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position among n samples
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}
