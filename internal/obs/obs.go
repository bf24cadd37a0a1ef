// Package obs is the repository's dependency-free telemetry layer: atomic
// counters, gauges and fixed-bucket histograms collected into a named
// Registry that renders itself as Prometheus text exposition (prom.go) and
// as JSON-able snapshots with quantile estimates. It exists so the commit
// pipeline (contq), the journal, and the HTTP layer can measure per-stage
// costs — the observations the adaptive execution policy needs as input —
// without pulling a metrics client library into the module.
//
// Design constraints:
//
//   - Standard library only. CI enforces that this package never grows a
//     dependency outside std.
//   - Write paths are lock-free: Counter/Gauge are single atomics,
//     Histogram.Observe is one atomic add into a fixed bucket plus CAS
//     loops for the float sum and max. Hot paths (one observation per
//     commit stage) cost nanoseconds.
//   - Reads are snapshots: Histogram.Snapshot copies the bucket array and
//     derives its count from that copy, so a snapshot taken mid-traffic is
//     internally consistent (count == Σ buckets) even though it may lag
//     the writers by a few observations.
//
// Instruments are get-or-create through the Registry, keyed by metric name
// plus label set, so independent components observing the same logical
// metric share one instrument. Default() is the process-wide registry most
// components fall back to when none is injected.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {Key: "stage", Value: "repair"}.
// Keep value sets small and bounded (stage names, engine kinds) — every
// distinct combination is a separate time series for the scraper.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LatencyBuckets is the default bucket layout for duration histograms, in
// milliseconds: roughly logarithmic from 50µs to 10s, the span between a
// no-op commit stage and a pathological full-graph repair.
var LatencyBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// SizeBuckets is the default bucket layout for count-valued histograms
// (batch sizes, queue depths): powers of two from 1 to 1024.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Counter is a monotonically increasing value (events, requests, bytes).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways (active
// subscriptions, queue depth) or track a high-water mark via SetMax.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation (e.g. deepest mailbox ever seen).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf overflow
// bucket. Bounds are fixed at creation (LatencyBuckets / SizeBuckets or
// custom), so Observe is one atomic add — no resizing, no locking.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	max    atomic.Uint64   // float64 bits, CAS-raised
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value (for duration histograms, in milliseconds —
// see ObserveSince for the common case).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	maxFloat(&h.max, v)
}

// ObserveDuration records d in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// ObserveSince records the elapsed time since start, in milliseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.ObserveDuration(time.Since(start))
}

// addFloat accumulates v into an atomic float64 (stored as bits).
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, nw) {
			return
		}
	}
}

// maxFloat raises an atomic float64 to v if larger. Observations are
// non-negative (durations, sizes), so the zero bit pattern (0.0) is a
// valid floor.
func maxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// HistSnapshot is a point-in-time summary of a histogram, shaped for JSON
// (the Stats().Timings block): total count, sum, max, and interpolated
// quantiles. Count is derived from one consistent copy of the buckets, so
// Count == the number of observations those quantiles describe.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram now. Quantiles are estimated by linear
// interpolation inside the winning bucket (the standard fixed-bucket
// estimate); observations in the +Inf bucket clamp to the observed max.
func (h *Histogram) Snapshot() HistSnapshot {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: total,
		Sum:   math.Float64frombits(h.sum.Load()),
		Max:   math.Float64frombits(h.max.Load()),
	}
	if total == 0 {
		return s
	}
	s.P50 = h.quantile(counts, total, 0.50, s.Max)
	s.P90 = h.quantile(counts, total, 0.90, s.Max)
	s.P99 = h.quantile(counts, total, 0.99, s.Max)
	return s
}

// quantile estimates the q-quantile from one consistent bucket copy.
func (h *Histogram) quantile(counts []uint64, total uint64, q, max float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) {
			return max // overflow bucket: the best bound we have
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		// Linear interpolation of the rank's position within the bucket.
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		v := lo + (hi-lo)*frac
		if v > max && max > 0 {
			v = max
		}
		return v
	}
	return max
}

// metricKind discriminates a family's instrument type.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one instrument inside a family: its label set plus exactly one
// of the typed instruments.
type child struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all instruments sharing one metric name (and therefore one
// type and help string).
type family struct {
	name     string
	help     string
	kind     metricKind
	children map[string]*child // keyed by canonical label string
	order    []string          // registration order of label keys, for stable render
}

// Registry holds named instruments and renders them (WriteProm). The zero
// value is not usable; construct with NewRegistry or use Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry components fall back to when no
// registry is injected. Sharing it is the point: gpserve's /v1/metricz
// exposes every component's instruments through one scrape.
func Default() *Registry { return defaultRegistry }

// labelKey canonicalizes a label set (sorted by key) for map lookup.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// getFamily get-or-creates the family for name, checking type agreement.
// Registering one name as two different instrument types is a programming
// error and panics loudly rather than silently corrupting the exposition.
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	return f
}

// getChild get-or-creates the instrument for a label set within a family.
func (f *family) getChild(labels []Label) *child {
	key := labelKey(labels)
	ch, ok := f.children[key]
	if !ok {
		ls := make([]Label, len(labels))
		copy(ls, labels)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
		ch = &child{labels: ls}
		f.children[key] = ch
		f.order = append(f.order, key)
	}
	return ch
}

// Counter get-or-creates the counter name{labels}. Callers across
// components receive the same instrument for the same identity.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := r.getFamily(name, help, kindCounter).getChild(labels)
	if ch.c == nil {
		ch.c = &Counter{}
	}
	return ch.c
}

// Gauge get-or-creates the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := r.getFamily(name, help, kindGauge).getChild(labels)
	if ch.g == nil {
		ch.g = &Gauge{}
	}
	return ch.g
}

// Histogram get-or-creates the histogram name{labels} with the given
// bucket upper bounds (nil = LatencyBuckets). Bounds are fixed by the
// first registration; later calls with different bounds receive the
// existing instrument unchanged.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := r.getFamily(name, help, kindHistogram).getChild(labels)
	if ch.h == nil {
		ch.h = newHistogram(bounds)
	}
	return ch.h
}
