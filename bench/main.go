// Command bench is the repository's benchmark: a single-process load
// generator that drives four fixed, seed-determined workloads through the
// public entry points of the system (the gpm façade's engines, the
// continuous-query registry over a durable journal, and real gpserve leader
// and follower processes through the client SDK), checks every result
// against the from-scratch oracle, and prints the metrics BENCHMARK.json
// declares. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", theGate.Seed, "seed of the generated graph and update stream (default: gate.json)")
		seconds = flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics; 0: the untraced run, which prints the end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "measure for about a second (CI scale; same inputs)")
		keep    = flag.String("keep", "", "keep child logs, journals and span files in this directory")
		full    = flag.Bool("full", false, "print every metric the run measured on the result line, not only the ones --trace selects (-all and -aa use it)")
		all     = flag.Bool("all", false, "run every workload (or those of -workload, comma-separated) untraced and traced; print one JSON document")
		aa      = flag.Int("aa", 0, "self-check: two sets of N untraced runs per workload; fail where they disagree beyond the bounds")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	var names []string
	if *name != "" {
		names = strings.Split(*name, ",")
	}
	switch {
	case *aa > 0:
		return runAA(sp, names, *aa, *seed, *seconds)
	case *all:
		var extra []string
		if *smoke {
			extra = append(extra, "-smoke")
		}
		if *keep != "" {
			extra = append(extra, "-keep", *keep)
		}
		return runAll(sp, names, *seed, *seconds, extra)
	}
	e, err := newEnv(root, *keep)
	if err != nil {
		return fail(err)
	}
	defer e.cleanup() // on return and on a panic of this goroutine alike

	sc := fullScale
	sc.seconds = *seconds
	if *smoke {
		sc = smokeScale
	}
	wl := workloadByName(*name)
	if wl == nil {
		return fail(fmt.Errorf("unknown workload %q (BENCHMARK.json lists them)", *name))
	}
	res, err := runWorkload(e, wl, *seed, sc, *trace == 1)
	if err != nil {
		return fail(err)
	}
	if res.Traced {
		if err := fillIn(e, sp, res, wl, *seed); err != nil {
			return fail(err)
		}
		if err := e.writeTrace(res); err != nil {
			return fail(err)
		}
	}
	return report(sp, res, *full)
}

// donors is the order in which fillIn asks the other workloads.
var donors = []string{"pipeline-fanout", "serve-stream", "engine-batch", "engine-unit"}

// fillIn supplies the per-layer metrics a workload has no way to measure. A
// workload loads some layers and leaves the others idle, and an idle layer
// has nothing to measure; yet the driver wants every per-layer name on every
// traced run. So, while a name is missing, the next workload of donors makes
// a smoke-scale traced pass on the same seed and the missing names it
// measured are taken from it, each tagged with that workload in
// res.Sources: the tag is printed beside the value and written to the trace
// file. A metric this workload measured itself is never overwritten, and a
// donor's ops and checks are its own business, not part of this run's
// attempted and failed. Read a layer's numbers on a workload that loads it.
func fillIn(e *env, sp *spec, res *runResult, ran *workload, seed int64) error {
	missing := func() []string {
		var out []string
		for _, m := range sp.PerLayer {
			if v, ok := res.Metrics[m.Name]; !ok || math.IsNaN(v) {
				out = append(out, m.Name)
			}
		}
		return out
	}
	res.Sources = map[string]string{}
	for _, name := range donors {
		need := missing()
		if len(need) == 0 {
			break
		}
		if name == ran.name {
			continue
		}
		other, err := runWorkload(e, workloadByName(name), seed, smokeScale, true)
		if err != nil {
			return fmt.Errorf("fill-in pass of %s: %w", name, err)
		}
		for _, p := range other.Problems {
			fmt.Fprintf(os.Stderr, "bench: fill-in pass of %s: failed check: %s\n", name, p)
		}
		for _, k := range need {
			if v, ok := other.Metrics[k]; ok && !math.IsNaN(v) {
				res.Metrics[k] = v
				res.Sources[k] = name
			}
		}
	}
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// report prints one run the way the driver reads it: diagnostics first, and
// as the last line of standard output one JSON object with exactly the keys
// correct, attempted, failed and metrics. The metrics are the end-to-end
// ones of BENCHMARK.json for an untraced run and the per-layer ones for a
// traced run; with full, everything the run measured.
func report(sp *spec, res *runResult, full bool) int {
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", p)
	}
	specs := sp.EndToEnd
	if res.Traced {
		specs = sp.PerLayer
	}
	metrics, err := declared(specs, res.Metrics)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", res.Workload, err))
	}
	units := sp.units()
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		note := ""
		if n, ok := res.Samples[k]; ok {
			note = fmt.Sprintf("  (%d samples)", n)
		}
		if from, ok := res.Sources[k]; ok {
			note = fmt.Sprintf("  (not measurable here: from a 1 s pass of %s)", from)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %-36s %14.6g%s\n", res.Workload, k, res.Metrics[k], note)
		if full && !math.IsNaN(res.Metrics[k]) {
			metrics[k] = metricValue{res.Metrics[k], units[k]}
		}
	}
	correct := res.Failed == 0 && len(res.Problems) == 0
	line, err := json.Marshal(resultLine{correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
