package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one call into a layer as the harness saw it from outside: the
// call's name, the layer (module) it belongs to, its start and end, the
// span that caused it and the op it served. Spans of one op share Op. The
// program under test is not instrumented; spans are recorded around its
// public entry points and, for the commit pipeline, rebuilt from the
// per-stage durations its commit observer reports.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Units  int    `json:"units,omitempty"` // unit updates the call carried
}

func (s span) dur() int64 { return s.End - s.Start }

// benchLayer marks the harness's own root spans. Their self time is what no
// layer accounts for: the unattributed share.
const benchLayer = "bench"

// tracer keeps spans in memory until the run ends. A nil tracer, and a
// tracer switched off, record nothing, so the untraced run pays one nil
// check per call site.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off between slices; the traced run
// alternates so that traced and untraced slices see the same conditions.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.mu.Lock()
		t.on = on
		t.mu.Unlock()
	}
}

func (t *tracer) active() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// start opens a span and returns its id, or -1 when not recording.
func (t *tracer) start(name, layer string, op, parent, units int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: now, End: now, Units: units})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setUnits records how many unit updates a span turned out to carry.
func (t *tracer) setUnits(id, units int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Units = units
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, under a span
// that was recorded; the on/off switch was consulted when that one started.
func (t *tracer) add(name, layer string, op, parent, units int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Units: units})
	return id
}

// commitStages names the commit pipeline's stages, in pipeline order, and
// the layer each belongs to: sim and bsim repair inside the shared network
// (gdn), the private engines in the repair fan-out.
var commitStages = [5]struct{ name, layer string }{
	{"contq.validate", "contq"},
	{"gdn.apply", "gdn"},
	{"engines.repair", "engines"},
	{"journal.append", "journal"},
	{"contq.publish", "contq"},
}

// addCommit records one commit under an op's span: the commit from begin to
// end, and inside it the stages back to back from begin, none reaching past
// end. The pipeline reports durations, not instants; the order is its own.
func (t *tracer) addCommit(op, parent, units int, begin, end time.Time, stages [5]time.Duration) {
	commit := t.add("contq.commit", "contq", op, parent, units, begin, end)
	at := begin
	for i, st := range commitStages {
		next := at.Add(stages[i])
		if next.After(end) {
			next = end
		}
		t.add(st.name, st.layer, op, commit, 0, at, next)
		at = next
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerShares is each layer's self time as a share of the ops' wall time:
// the table the README's "which workload loads which layer" claims rest on.
// Spans outside any op (Op < 0: oracle recomputes, probes) are left out.
func layerShares(spans []span) map[string]float64 {
	var wall int64
	for _, s := range spans {
		if s.Op >= 0 && s.Parent < 0 {
			wall += s.dur()
		}
	}
	out := make(map[string]float64)
	if wall == 0 {
		return out
	}
	for i, d := range selfTimes(spans) {
		if spans[i].Op >= 0 {
			out[spans[i].Layer] += float64(d) / float64(wall)
		}
	}
	return out
}

// unattributedShare is 1 − Σ layer self time ÷ Σ op wall: the share of the
// ops' wall time that no layer's span accounts for.
func unattributedShare(spans []span) float64 {
	attributed := 0.0
	for layer, share := range layerShares(spans) {
		if layer != benchLayer {
			attributed += share
		}
	}
	return 1 - attributed
}

// byName sums duration, units and count of the spans with the given name.
func byName(spans []span, name string) (ns int64, units, count int) {
	for _, s := range spans {
		if s.Name == name {
			ns += s.dur()
			units += s.Units
			count++
		}
	}
	return ns, units, count
}
