package main

import (
	"maps"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"gpm"
	"gpm/client"
)

func testEnv(t *testing.T) (*env, *spec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.cleanup)
	return e, sp
}

func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is needed to build gpserve")
	}
}

// The code's workloads are BENCHMARK.json's, by name and order.
func TestWorkloadNamesMatchBenchmarkJSON(t *testing.T) {
	_, sp := testEnv(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
	}
}

// BENCHMARK.json's end_to_end is the driver-gated part of gate.json's list,
// with the same units, directions and bounds; a driver-gated row applies to
// every workload; gate.json names only declared workloads and holds every
// one of the issue's twelve names.
func TestBenchmarkJSONIsTheDriverGatedPartOfTheGate(t *testing.T) {
	_, sp := testEnv(t)
	var gated []metricSpec
	names := map[string]bool{}
	for _, m := range theGate.EndToEnd {
		names[m.Name] = true
		for _, w := range m.Workloads {
			if workloadByName(w) == nil {
				t.Errorf("gate.json lists %s for unknown workload %q", m.Name, w)
			}
		}
		if m.DriverGated {
			gated = append(gated, m.metricSpec)
			if len(m.Workloads) != len(workloads) || m.Absolute || m.Bound > 0.25 {
				t.Errorf("%s cannot be driver-gated: %+v", m.Name, m)
			}
		}
	}
	if !slices.Equal(gated, sp.EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end is\n%+v\nthe gate's driver-gated part is\n%+v", sp.EndToEnd, gated)
	}
	for _, name := range []string{"setup_s", "updates_per_s", "apply_ms_p50", "apply_ms_p95", "notify_ms_p50", "notify_ms_p95",
		"replica_notify_ms_p50", "read_ms_p50", "inc_vs_batch_ratio", "recover_s", "peak_rss_mb", "failed_ops_share"} {
		if !names[name] {
			t.Errorf("the gate lacks the issue's %s", name)
		}
	}
}

// All four workloads run end to end at smoke scale, traced, with every
// check passing; each yields every end-to-end metric gate.json lists for
// it (so every one BENCHMARK.json declares), and together — the way a
// traced run is filled in — every per-layer metric, and nothing is emitted
// that is not declared.
func TestSmokeEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	e, sp := testEnv(t)
	union := map[string]float64{}
	for _, wl := range workloads {
		if wl.prepare != nil {
			needGo(t)
		}
		res, err := runWorkload(e, wl, 5, smokeScale, true)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.Failed != 0 || len(res.Problems) != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %d of %d ops failed: %v", wl.name, res.Failed, res.Attempted, res.Problems)
		}
		for _, m := range theGate.EndToEnd {
			if _, ok := res.Metrics[m.Name]; ok != slices.Contains(m.Workloads, wl.name) {
				t.Errorf("%s: measured %s: %v; gate.json lists it for %v", wl.name, m.Name, ok, m.Workloads)
			}
		}
		for k, v := range res.Metrics {
			union[k] = v
		}
	}
	if _, err := declared(sp.PerLayer, union); err != nil {
		t.Error(err)
	}
	known := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		known[m.Name] = true
	}
	for k := range union {
		if !known[k] {
			t.Errorf("metric %s is measured but not declared in BENCHMARK.json", k)
		}
	}
}

// A traced run is completed with tagged values from short passes of other
// workloads: every per-layer name is there, what the workload measured
// itself is untouched and untagged, and a donor's ops are not counted.
func TestFillInTagsWhatItBorrows(t *testing.T) {
	needGo(t)
	e, sp := testEnv(t)
	wl := workloadByName("engine-batch")
	res, err := runWorkload(e, wl, 5, smokeScale, true)
	if err != nil {
		t.Fatal(err)
	}
	own := maps.Clone(res.Metrics)
	attempted := res.Attempted
	if err := fillIn(e, sp, res, wl, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := declared(sp.PerLayer, res.Metrics); err != nil {
		t.Error(err)
	}
	if res.Attempted != attempted {
		t.Errorf("attempted went from %d to %d: a donor's ops were counted", attempted, res.Attempted)
	}
	for k, v := range res.Metrics {
		from, borrowed := res.Sources[k]
		if mine, ok := own[k]; ok && (borrowed || mine != v) {
			t.Errorf("%s was measured here (%v) and is now %v, tagged %q", k, mine, v, from)
		} else if !ok && (!borrowed || from == wl.name) {
			t.Errorf("%s was not measured here and is tagged %q", k, from)
		}
	}
	if res.Sources["incbsim.batch_ns_per_update"] != "" || res.Sources["contq.commits"] != "pipeline-fanout" || res.Sources["serve.http_floor_ms"] != "serve-stream" {
		t.Errorf("unexpected sources: %v", res.Sources)
	}
}

// lyingSUT drops one pair from one pattern's result: the oracle must
// notice, count the ops as failed, and make the command exit non-zero.
type lyingSUT struct{ sut }

func (l lyingSUT) result(id string) (gpm.Relation, error) {
	r, err := l.sut.result(id)
	if err != nil || id != "sim-dag" {
		return r, err
	}
	r = r.Clone()
	for _, p := range r.Pairs() {
		r[p.U].Remove(p.V)
		break
	}
	return r, nil
}

func TestACorruptedResultFailsTheRun(t *testing.T) {
	e, sp := testEnv(t)
	wl := *workloadByName("engine-batch")
	honest := wl.setup
	wl.setup = func(e *env, g *gpm.Graph, pats []patternSpec, size sizing, tr *tracer) (sut, error) {
		s, err := honest(e, g, pats, size, tr)
		return lyingSUT{s}, err
	}
	res, err := runWorkload(e, &wl, 5, smokeScale, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || len(res.Problems) == 0 {
		t.Fatalf("a corrupted result went unnoticed: %+v", res)
	}
	if res.Failed != res.Attempted {
		t.Errorf("%d of %d ops counted as failed; every checkpoint failed, so all should", res.Failed, res.Attempted)
	}
	if code := report(sp, res, false); code == 0 {
		t.Error("the command must exit non-zero when a check fails")
	}
}

// A server that never turns ready must fail the run fast, with the tail of
// its log: here a follower whose leader does not exist.
func TestNeverReadyFailsFastWithTheLogTail(t *testing.T) {
	needGo(t)
	e, _ := testEnv(t)
	dir, err := e.subdir("never-ready")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.startServer("orphan", dir, "-follow", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	t0 := time.Now()
	err = p.waitReady(client.New(p.url), 500*time.Millisecond)
	if err == nil {
		t.Fatal("a follower without a leader reported ready")
	}
	if time.Since(t0) > 5*time.Second {
		t.Errorf("gave up only after %v", time.Since(t0))
	}
	if !strings.Contains(err.Error(), "orphan.log") || !strings.Contains(err.Error(), "follower mode") {
		t.Errorf("the error does not carry the child's log tail:\n%v", err)
	}
}
