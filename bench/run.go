package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"gpm"
)

// sut is a workload's system under test, driven only through the entry
// point the workload names (engine Batch calls, Registry.Apply,
// client.Apply).
type sut interface {
	// apply submits one op and returns once it is acknowledged, with the
	// commit sequence that contains it (the op index where there is none).
	apply(op int, ups []gpm.Update) (uint64, error)
	// settle returns once every acknowledged op is visible everywhere the
	// workload reads: subscribers hold the event of commit head, and a
	// follower has applied it.
	settle(head uint64) error
	// result reads pattern id's current match through the read path.
	result(id string) (gpm.Relation, error)
	// verify reports integrity violations seen since the last call:
	// sequence gaps on a stream, a follower that differs from its leader.
	verify() []string
	// peakRSSMB is VmHWM of the process under test.
	peakRSSMB() (float64, error)
	// layers derives the per-layer metrics this system owns from the
	// traced run's spans and from the hooks the layers already publish;
	// it may add spans it could only work out after the run.
	layers() map[string]float64
	close()
}

// Optional faces of a sut.
type (
	// notifier has subscribers: received hands over what each one got
	// since the last call, split into subscribers on the node that takes
	// the writes and subscribers on a replica of it.
	notifier interface {
		received() (primary, replica [][]recvRec)
	}
	// reader can serve the read that the workload issues beside its writes.
	reader interface{ read() error }
	// unitProber can take an op as a sequence of unit updates.
	unitProber interface{ unitProbe(ups []gpm.Update) }
	// recoverer can be shut down and brought back from its durable state.
	// apply submits one more op from the workload's stream, which recover
	// uses to pin the length of the tail that recovery replays.
	recoverer interface {
		recover(apply func() error) (time.Duration, error)
	}
)

// recoveries is how many times a run shuts its system down and brings it
// back; recover_s is the median. One recovery takes a tenth to a third of a
// second, and measured once it spread by a third from run to run.
const recoveries = 3

func medianOfRecoveries(restart func() (time.Duration, error)) (time.Duration, error) {
	var secs []float64
	for i := 0; i < recoveries; i++ {
		d, err := restart()
		if err != nil {
			return d, err
		}
		secs = append(secs, d.Seconds())
	}
	return time.Duration(median(secs) * float64(time.Second)), nil
}

// recvRec is one event in a subscriber's hands.
type recvRec struct {
	seq       uint64
	at        time.Time // when the subscriber got it
	published time.Time // the event's own publish stamp, zero if it has none
}

// opRec is one op as the generator saw it.
type opRec struct {
	idx, updates int
	due          time.Time // open loop only: when the schedule wanted it sent
	start, end   time.Time
	seq          uint64
	err          error
	ph           *phaseStats // the timed phase it belongs to, nil during warm-up
}

// from is where an op's latency starts: its due time in an open loop, so
// that a stall is charged to every op that was due during it, and its
// submission in a closed loop, where the caller was not free any earlier.
func (o opRec) from() time.Time {
	if o.due.IsZero() {
		return o.start
	}
	return o.due
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phase is one traffic shape inside every slice of the timed window.
type phase struct {
	name  string
	share float64 // of the slice
	open  bool    // open loop at size.PacedRate; otherwise closed loop with size.Writers
}

// phaseStats is what one phase of one slice measured.
type phaseStats struct {
	wall                         time.Duration
	ops, updates                 int
	apply, notify, replica, late []sample
}

// slice is one stretch of the timed window: every phase once, the reads
// issued beside them, and then, with the system quiesced, the from-scratch
// recompute of every pattern on the graph the ops left. The recompute is the
// batch side of the *_vs_batch ratios. It is taken beside every third of a
// second of ops, so that a run holds some fifty measurements of either side
// from all over the window (see quietQuantile).
type slice struct {
	traced   bool
	fifth    int // the fifth of the window it began in
	phases   []phaseStats
	reads    []sample
	oracleMS float64
}

// sliceTime is how long a slice submits ops, all its phases together.
const sliceTime = 300 * time.Millisecond

// workload ties a name to its frozen sizes, its patterns, its traffic shape
// and the constructor of its system under test.
type workload struct {
	name     string
	size     sizing
	patterns func(sizing) []patternSpec
	phases   []phase
	// prepare does what must exist before setup but is not part of it
	// (building gpserve); nil for none.
	prepare func(e *env) error
	// setup builds the system and makes it ready for its first update. Its
	// wall time is setup_s. The graph is the sut's to keep.
	setup func(e *env, g *gpm.Graph, pats []patternSpec, size sizing, tr *tracer) (sut, error)
}

// scale is how long a run measures. The sizes are not part of it: a smoke
// run uses the same inputs for less time.
type scale struct {
	seconds     float64
	once        bool // set up once, not size.Setups times, and never repeat a slice's recompute
	tailDivisor int  // shrinks the recovery tail and snapshot cadence (1 = as frozen)
}

var (
	fullScale  = scale{tailDivisor: 1}
	smokeScale = scale{seconds: 1, once: true, tailDivisor: 8}
)

// runResult is one run of one workload.
type runResult struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Samples   map[string]int // sample counts behind the percentiles
	Problems  []string       // failed checks, in words
	Spans     []span         // of a traced run
	// Sources names, for each metric that this workload has no way to
	// measure, the workload whose short pass supplied it (see fillIn).
	Sources map[string]string
}

type runner struct {
	wl      *workload
	in      *inputs
	s       sut
	tr      *tracer
	takeMu  sync.Mutex // serializes stream.take across callers
	headMu  sync.Mutex // guards head and problems
	head    uint64     // highest commit sequence acknowledged
	pending []opRec    // ops since the last verified checkpoint
	filed   int        // how many of pending fileNotifies has seen
	slices  []slice
	once    bool // scale.once

	attempted, failed int
	problems          []string
}

// problem notes a failed check; the reader goroutine reports here too.
func (r *runner) problem(format string, args ...any) {
	r.headMu.Lock()
	defer r.headMu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// do takes the next op and submits it.
func (r *runner) do(due time.Time, ph *phaseStats) opRec {
	r.takeMu.Lock()
	idx, ups := r.in.stream.take()
	r.takeMu.Unlock()
	rec := opRec{idx: idx, updates: len(ups), due: due, ph: ph, start: time.Now()}
	rec.seq, rec.err = r.s.apply(idx, ups)
	rec.end = time.Now()
	if rec.err == nil {
		r.headMu.Lock()
		r.head = max(r.head, rec.seq)
		r.headMu.Unlock()
	}
	return rec
}

// closedLoop keeps `writers` callers busy until the deadline: each sends
// its next op only when its previous one is acknowledged.
func (r *runner) closedLoop(dur time.Duration, writers int, ph *phaseStats) []opRec {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]opRec, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[w] = append(per[w], r.do(time.Time{}, ph))
			}
		}()
	}
	wg.Wait()
	var recs []opRec
	for _, p := range per {
		recs = append(recs, p...)
	}
	if ph != nil {
		ph.wall = time.Since(start)
	}
	return recs
}

// runPhase drives one phase for dur and files its ops.
func (r *runner) runPhase(p phase, dur time.Duration, ph *phaseStats, want int) int {
	var recs []opRec
	if p.open {
		r.in.stream.prefill(int(r.wl.size.PacedRate*dur.Seconds()*1.1) + 16)
		recs = openLoop(r.wl.size.PacedRate, dur, maxInFlight, func(due time.Time) opRec { return r.do(due, ph) })
		if ph != nil {
			ph.wall = dur
		}
	} else {
		r.in.stream.prefill(want)
		recs = r.closedLoop(dur, r.wl.size.Writers, ph)
	}
	for _, rec := range recs {
		r.attempted++
		if rec.err != nil {
			r.failed++
			r.problem("op %d: %v", rec.idx, rec.err)
			continue
		}
		if ph != nil {
			ph.ops++
			ph.updates += rec.updates
			ph.apply = append(ph.apply, sample{rec.end, ms(rec.end.Sub(rec.from()))})
			if p.open {
				ph.late = append(ph.late, sample{rec.start, ms(rec.start.Sub(rec.due))})
			}
		}
	}
	r.pending = append(r.pending, recs...)
	return len(recs)
}

// runSlice runs every phase once. A fifth below zero is the warm-up, which
// is not timed.
func (r *runner) runSlice(dur time.Duration, fifth int, traced bool, want []int) {
	r.tr.enable(traced)
	defer r.tr.enable(false)
	timed := fifth >= 0
	sl := slice{traced: traced, fifth: fifth, phases: make([]phaseStats, len(r.wl.phases))}
	stopReads := r.startReads(&sl)
	for i, p := range r.wl.phases {
		var ph *phaseStats
		if timed {
			ph = &sl.phases[i]
		}
		n := r.runPhase(p, time.Duration(float64(dur)*p.share), ph, want[i])
		want[i] = max(64, 2*n)
	}
	stopReads()
	if up, ok := r.s.(unitProber); ok && traced {
		for n := 0; n < unitProbeUpdates; {
			r.takeMu.Lock()
			_, ups := r.in.stream.take()
			r.takeMu.Unlock()
			up.unitProbe(ups)
			n += len(ups)
		}
	}
	if timed {
		r.slices = append(r.slices, sl)
	}
}

// unitProbeUpdates is how many unit updates each traced slice feeds the
// engines one at a time, to time unit insertions and deletions.
const unitProbeUpdates = 16

// startReads issues one read every 10 ms beside the slice's writes.
func (r *runner) startReads(f *slice) (stop func()) {
	rd, ok := r.s.(reader)
	if !ok {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t0 := time.Now()
				id := r.tr.start("read", benchLayer, -1, -1, 0)
				err := rd.read()
				r.tr.end(id)
				if err != nil {
					r.problem("read: %v", err)
					continue
				}
				f.reads = append(f.reads, sample{t0, ms(time.Since(t0))})
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// Names of the spans around the batch algorithms, by engine kind.
var oracleSpan = map[gpm.EngineKind][2]string{
	gpm.KindSim:  {"simulation.maximum", "simulation"},
	gpm.KindBSim: {"core.match", "core"},
	gpm.KindIso:  {"iso.enumerate", "iso"},
}

// A slice's from-scratch recompute is repeated, and the median taken, until
// it has run for referenceMinTime in all, at most referenceMaxReps times: a
// single 8 ms measurement would put its own noise into the slice's ratios.
const (
	referenceMinTime = 60 * time.Millisecond
	referenceMaxReps = 9
)

// reference quiesces the system and recomputes every pattern's match from
// scratch on the model graph, timed: the batch side of the *_vs_batch
// ratios of the slice just run. With verify it is also a checkpoint and
// holds the system to the oracle: every pattern's result must equal the
// recompute, streams must be gapless, a follower must equal its leader.
// Only the recompute is timed; everything else here is outside the ops'
// timed stretches.
func (r *runner) reference(verify bool) {
	ok := true
	if err := r.s.settle(r.head); err != nil {
		r.problem("settle: %v", err)
		ok = false
	}
	r.tr.enable(true) // the oracle's spans feed the batch-algorithm metrics
	id := r.tr.start("graph.apply", "graph", -1, -1, 0)
	n := r.in.stream.syncModel()
	r.tr.end(id)
	r.tr.setUnits(id, n)
	model := r.in.stream.model
	want := make([]gpm.Relation, len(r.in.patterns))
	var times []float64
	for total := time.Duration(0); ; {
		t0 := time.Now()
		for i, ps := range r.in.patterns {
			name := oracleSpan[ps.kind]
			id := r.tr.start(name[0], name[1], -1, -1, 0)
			want[i] = oracle(ps, model)
			r.tr.end(id)
		}
		d := time.Since(t0)
		total += d
		times = append(times, ms(d))
		if r.once || total >= referenceMinTime || len(times) == referenceMaxReps {
			break
		}
	}
	if n := len(r.slices); n > 0 && r.slices[n-1].oracleMS == 0 {
		r.slices[n-1].oracleMS = median(times)
	}
	r.tr.enable(false)
	r.fileNotifies()
	if ok && !verify {
		return
	}
	for i, ps := range r.in.patterns {
		got, err := r.s.result(ps.id)
		if err != nil {
			r.problem("result %s: %v", ps.id, err)
			ok = false
		} else if !sameRelation(got, want[i]) {
			r.problem("pattern %s: incremental result has %d pairs, from-scratch recompute %d", ps.id, got.Size(), want[i].Size())
			ok = false
		}
	}
	for _, p := range r.s.verify() {
		r.problem("%s", p)
		ok = false
	}
	if !ok {
		// Some op since the last checkpoint broke the state; the oracle
		// cannot say which, so all of them count.
		for _, rec := range r.pending {
			if rec.err == nil {
				r.failed++
			}
		}
	}
	r.pending, r.filed = r.pending[:0], 0
}

// fileNotifies joins the subscribers' receive logs with the ops since its
// last call: an op's notify latency runs from its due (or submit)
// time to the moment a subscriber held the event of the commit containing
// it. Every (op, subscriber) pair is one sample.
func (r *runner) fileNotifies() {
	nt, ok := r.s.(notifier)
	if !ok {
		return
	}
	primary, replica := nt.received()
	index := func(logs [][]recvRec) []map[uint64]time.Time {
		out := make([]map[uint64]time.Time, len(logs))
		for i, log := range logs {
			out[i] = make(map[uint64]time.Time, len(log))
			for _, rec := range log {
				out[i][rec.seq] = rec.at
			}
		}
		return out
	}
	pi, ri := index(primary), index(replica)
	unfiled := r.pending[r.filed:]
	r.filed = len(r.pending)
	for _, rec := range unfiled {
		if rec.err != nil || rec.ph == nil {
			continue
		}
		for _, m := range pi {
			if at, ok := m[rec.seq]; ok {
				rec.ph.notify = append(rec.ph.notify, sample{at, ms(at.Sub(rec.from()))})
			}
		}
		for _, m := range ri {
			if at, ok := m[rec.seq]; ok {
				rec.ph.replica = append(rec.ph.replica, sample{at, ms(at.Sub(rec.from()))})
			}
		}
	}
}

func sameRelation(a, b gpm.Relation) bool {
	pa, pb := a.Pairs(), b.Pairs()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// runWorkload is one whole run: generate the inputs, set up, warm up for a
// tenth of the window, fill the window with slices — ops, then the reference
// recompute, and now and then one more set-up for setup_s — holding the
// system to the oracle after the warm-up, at the end of every fifth of the
// window and after recovery, recover where the workload has durable state,
// and derive the metrics.
func runWorkload(e *env, wl *workload, seed int64, sc scale, traced bool) (*runResult, error) {
	size := wl.size
	size.Tail = max(1, size.Tail/sc.tailDivisor)
	size.SnapshotEvery = max(2, size.SnapshotEvery/sc.tailDivisor)
	scaled := *wl
	scaled.size = size
	wl = &scaled
	if wl.prepare != nil {
		if err := wl.prepare(e); err != nil {
			return nil, err
		}
	}
	in := makeInputs(wl, seed)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := &runner{wl: wl, in: in, tr: tr, once: sc.once}

	tr.enable(traced)
	t0 := time.Now()
	s, err := wl.setup(e, in.graph.Clone(), in.patterns, size, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	tr.enable(false)
	r.s = s
	defer r.s.close()

	window := time.Duration(sc.seconds * float64(time.Second))
	want := make([]int, len(wl.phases))
	for i := range want {
		want[i] = 64
	}
	r.runSlice(window/10, -1, false, want)
	r.reference(true)
	// The traced run alternates traced and untraced slices, so that the two
	// see the same machine and their difference is the tracing cost.
	repeats := size.Setups
	if sc.once {
		repeats = 1
	}
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		fifth := int(5 * time.Since(start) / window)
		r.runSlice(sliceTime, fifth, traced && i%2 == 0, want)
		elapsed := time.Since(start)
		r.reference(elapsed >= window || int(5*elapsed/window) > fifth)
		// The other set-ups of setup_s, spread evenly over the window.
		if n := len(setups); n < repeats && time.Since(start) >= time.Duration(n)*window/time.Duration(repeats) {
			d, err := spareSetup(e, wl, in)
			if err != nil {
				return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
			}
			setups = append(setups, d.Seconds())
		}
	}
	if len(r.pending) > 0 { // the last recompute itself ran past the window's end
		r.reference(true)
	}
	setupS := percentile(setups, setupQuantile)

	res := &runResult{Workload: wl.name, Traced: traced, Metrics: map[string]float64{}, Samples: map[string]int{}}
	rss, err := r.s.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("%s: reading peak RSS: %w", wl.name, err)
	}
	var layers map[string]float64
	if traced {
		layers = r.s.layers() // before recovery replaces the system's state
	}
	if rc, ok := r.s.(recoverer); ok {
		d, err := rc.recover(func() error {
			rec := r.do(time.Time{}, nil)
			r.attempted++
			r.pending = append(r.pending, rec)
			return rec.err
		})
		if err != nil {
			r.problem("recover: %v", err)
			r.failed++
		}
		r.reference(true) // the recovered state must equal the oracle too
		res.Metrics["recover_s"] = d.Seconds()
	}
	r.metrics(res, setupS, rss)
	if traced {
		spans := tr.snapshot()
		for k, v := range layers {
			res.Metrics[k] = v
		}
		r.tracedMetrics(res, spans)
		res.Spans = spans
	}
	res.Attempted, res.Failed, res.Problems = r.attempted, r.failed, r.problems
	res.Metrics["failed_ops_share"] = float64(r.failed) / float64(max(1, r.attempted))
	return res, nil
}

// spareSetup sets the workload's system up once more, beside the one under
// test and while that one is quiescent, times it and throws it away. setup_s
// is taken over set-ups spread across the whole run, because a neighbour on
// the machine that is busy for seconds at a time would otherwise decide the
// metric by where the run's first second fell.
func spareSetup(e *env, wl *workload, in *inputs) (time.Duration, error) {
	t0 := time.Now()
	s, err := wl.setup(e, in.graph.Clone(), in.patterns, wl.size, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	s.close()
	runtime.GC() // so that the discarded system does not sit in the heap through the next slices
	return d, nil
}

// untraced are the slices end-to-end numbers may come from.
func (r *runner) untraced() []slice {
	var out []slice
	for _, sl := range r.slices {
		if !sl.traced {
			out = append(out, sl)
		}
	}
	return out
}

// rate is the closed-loop throughput of the given slices, in unit updates
// and in ops per second of timed wall: the median of the slices' own rates,
// so that a slice slowed by a neighbour on the machine does not set the
// result.
func (r *runner) rate(ss []slice) (updatesPerS, opsPerS float64) {
	var ups, ops []float64
	for _, sl := range ss {
		for i, p := range r.wl.phases {
			if ph := sl.phases[i]; !p.open && ph.wall > 0 {
				ups = append(ups, float64(ph.updates)/ph.wall.Seconds())
				ops = append(ops, float64(ph.ops)/ph.wall.Seconds())
			}
		}
	}
	return median(ups), median(ops)
}

// A neighbour on the machine lengthens a time and never shortens it, for a
// fraction of a second or for minutes on end (README.md, "A shared
// machine"). The benchmark's gated numbers therefore read both sides of a
// ratio, and the set-up time, at a low quantile of what the run measured:
// its quiet moments. A median moves with the share of the run the neighbour
// was busy for, and that share differs from one run to the next.
const (
	quietQuantile = 10 // of a run's slices, for either side of the *_vs_batch ratios
	setupQuantile = 25 // of a run's set-ups, of which there are far fewer
)

// vsBatch is one of the *_vs_batch ratios: a per-slice time of the ops over
// the slices' reference recomputes, each side at quietQuantile.
func vsBatch(ss []slice, opsMS func(*slice) (float64, bool)) (ratio float64, slices int) {
	var ops, ref []float64
	for i := range ss {
		if v, ok := opsMS(&ss[i]); ok && ss[i].oracleMS > 0 {
			ops = append(ops, v)
			ref = append(ref, ss[i].oracleMS)
		}
	}
	return percentile(ops, quietQuantile) / percentile(ref, quietQuantile), len(ops)
}

// byFifth pools the slices' samples per fifth of the window, in time order,
// and cuts each fifth into windows (see windowed).
func byFifth(ss []slice, get func(*slice) []sample) [][]float64 {
	var pools [5][]sample
	for i := range ss {
		f := min(max(ss[i].fifth, 0), len(pools)-1)
		pools[f] = append(pools[f], get(&ss[i])...)
	}
	var w [][]float64
	for _, pool := range pools {
		w = append(w, windows(pool)...)
	}
	return w
}

// metrics derives the end-to-end numbers, from untraced slices only.
func (r *runner) metrics(res *runResult, setupS, rssMB float64) {
	ss := r.untraced()
	last := len(r.wl.phases) - 1 // latencies come from the paced phase where there is one
	pick := func(get func(*phaseStats) []sample) [][]float64 {
		return byFifth(ss, func(sl *slice) []sample { return get(&sl.phases[last]) })
	}
	put := func(name string, windows [][]float64, p float64) {
		if n := sampleCount(windows); n > 0 {
			res.Metrics[name] = windowed(windows, p)
			res.Samples[name] = n
		}
	}
	res.Metrics["setup_s"] = setupS
	res.Metrics["peak_rss_mb"] = rssMB
	res.Metrics["updates_per_s"], _ = r.rate(ss)
	apply := pick(func(p *phaseStats) []sample { return p.apply })
	put("apply_ms_p50", apply, 50)
	put("apply_ms_p95", apply, 95)
	notify := pick(func(p *phaseStats) []sample { return p.notify })
	put("notify_ms_p50", notify, 50)
	put("notify_ms_p95", notify, 95)
	put("replica_notify_ms_p50", pick(func(p *phaseStats) []sample { return p.replica }), 50)
	put("read_ms_p50", byFifth(ss, func(sl *slice) []sample { return sl.reads }), 50)
	if late := pick(func(p *phaseStats) []sample { return p.late }); sampleCount(late) > 0 {
		res.Metrics["bench.sched_late_ms_p95"] = windowed(late, 95)
	}
	// The paper's headline: the amortized time to absorb one op incrementally
	// (a slice's closed-loop wall time per op) over the time to recompute
	// every pattern from scratch once.
	res.Metrics["inc_vs_batch_ratio"], res.Samples["inc_vs_batch_ratio"] = vsBatch(ss, func(sl *slice) (float64, bool) {
		var wall time.Duration
		ops := 0
		for i, p := range r.wl.phases {
			if !p.open {
				wall += sl.phases[i].wall
				ops += sl.phases[i].ops
			}
		}
		return ms(wall) / float64(ops), ops > 0
	})
	// The median latency in the same currency: a slice's median apply time
	// over the recompute.
	res.Metrics["apply_p50_vs_batch"], res.Samples["apply_p50_vs_batch"] = vsBatch(ss, func(sl *slice) (float64, bool) {
		var lat []float64
		for _, s := range sl.phases[last].apply {
			lat = append(lat, s.ms)
		}
		return median(lat), len(lat) > 0
	})
}

// tracedMetrics adds what only a traced run knows: the cost of tracing
// itself and the share of op wall time no layer accounts for.
func (r *runner) tracedMetrics(res *runResult, spans []span) {
	var tracedSlices []slice
	for _, sl := range r.slices {
		if sl.traced {
			tracedSlices = append(tracedSlices, sl)
		}
	}
	_, with := r.rate(tracedSlices)
	_, without := r.rate(r.untraced())
	res.Metrics["obs.tracing_overhead_share"] = without/with - 1
	res.Metrics["bench.unattributed_share"] = unattributedShare(spans)
	for _, name := range []string{"simulation.maximum", "core.match", "iso.enumerate"} {
		if ns, _, count := byName(spans, name); count > 0 {
			res.Metrics[name+"_ms"] = float64(ns) / 1e6 / float64(count)
		}
	}
	if ns, units, _ := byName(spans, "graph.apply"); units > 0 {
		res.Metrics["graph.apply_ns_per_update"] = float64(ns) / float64(units)
	}
	if ns, _, count := byName(spans, "journal.open"); count > 0 {
		res.Metrics["journal.open_recover_ms"] = float64(ns) / 1e6 / float64(count)
	}
}

// peakRSSMB reads VmHWM of a process from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
