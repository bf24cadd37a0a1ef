package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// resultLine is the last line a run prints: the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChild runs one workload in a fresh process of this same program, as
// the driver does, so that peak RSS and warm-up state never carry over from
// one run to the next. The child's diagnostics go to standard error.
func runChild(workload string, seed int64, seconds float64, traced bool, extra ...string) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := append([]string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (seed %d): no result line (%v): %v", workload, seed, runErr, err)
	}
	return &res, nil // a failed check is in res.Correct; the caller reports it
}

// runAll is `-all`: every selected workload once untraced (the end-to-end
// metrics gate.json lists for it) and once traced (the per-layer metrics),
// printed as one JSON document. The document ends with "claim": null: this benchmark states
// numbers, a change that claims a gain cites them.
func runAll(sp *spec, names []string, seed int64, seconds float64, extra []string) int {
	type entry struct {
		Why       string                 `json:"why"`
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		EndToEnd  map[string]metricValue `json:"end_to_end"`
		PerLayer  map[string]metricValue `json:"per_layer"`
	}
	doc := struct {
		Benchmark  string           `json:"benchmark"`
		Seed       int64            `json:"seed"`
		RunSeconds float64          `json:"run_seconds"`
		Workloads  map[string]entry `json:"workloads"`
		Claim      any              `json:"claim"`
	}{"BENCHMARK.json", seed, seconds, map[string]entry{}, nil}
	code := 0
	for _, w := range sp.Workloads {
		if !selected(names, w.Name) {
			continue
		}
		plain, err := runChild(w.Name, seed, seconds, false, append([]string{"-full"}, extra...)...)
		if err != nil {
			return fail(err)
		}
		endToEnd := map[string]metricValue{}
		for _, m := range theGate.EndToEnd {
			if v, ok := plain.Metrics[m.Name]; ok && slices.Contains(m.Workloads, w.Name) {
				endToEnd[m.Name] = v
			}
		}
		traced, err := runChild(w.Name, seed, seconds, true, extra...)
		if err != nil {
			return fail(err)
		}
		e := entry{
			Why:       w.Why,
			Correct:   plain.Correct && traced.Correct,
			Attempted: plain.Attempted + traced.Attempted,
			Failed:    plain.Failed + traced.Failed,
			EndToEnd:  endToEnd,
			PerLayer:  traced.Metrics,
		}
		if !e.Correct {
			code = 1
		}
		doc.Workloads[w.Name] = e
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return code
}

// selected reports whether -workload named the workload (or named none).
func selected(names []string, name string) bool {
	return len(names) == 0 || slices.Contains(names, name)
}

// runAA is `-aa N`, the benchmark's check on itself: two sets of N untraced
// runs of the same build, every run in a fresh process with another seed, as
// the driver makes them, the sets' runs alternating. For each workload and each end-to-end metric gate.json lists for it
// — the ones BENCHMARK.json bounds and the ones only some workloads measure
// alike — it prints both sets' medians and quartiles, their spread (the
// distance between the quartiles as a share of the median) and the bound,
// and it fails when a spread exceeds the bound (setup_s excepted, as in the
// driver's rule) or the two medians differ by more than the bound: a metric
// that cannot agree with itself cannot judge a change. An absolute bound
// (failed_ops_share: 0) is a ceiling on every value.
func runAA(sp *spec, names []string, n int, seed int64, seconds float64) int {
	type set struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
	}
	type row struct {
		Unit       string  `json:"unit"`
		Better     string  `json:"better"`
		Bound      float64 `json:"bound"`
		Absolute   bool    `json:"absolute,omitempty"`
		Sets       [2]set  `json:"sets"`
		Difference float64 `json:"median_difference"`
		Verdict    string  `json:"verdict"`
	}
	doc := struct {
		Runs       int                       `json:"runs_per_set"`
		RunSeconds float64                   `json:"run_seconds"`
		FirstSeed  int64                     `json:"first_seed"`
		Workloads  map[string]map[string]row `json:"workloads"`
		Unresolved []string                  `json:"unresolved"`
	}{n, seconds, seed, map[string]map[string]row{}, []string{}}
	code := 0
	for _, w := range sp.Workloads {
		if !selected(names, w.Name) {
			continue
		}
		// The two sets' runs alternate, as the runs of a parent and a
		// change would, so that a drift of the machine falls on both.
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range values {
				res, err := runChild(w.Name, seed+int64(s*n+i), seconds, false, "-full")
				if err != nil {
					return fail(err)
				}
				if !res.Correct {
					code = 1
				}
				for name, v := range res.Metrics {
					values[s][name] = append(values[s][name], v.Value)
				}
			}
		}
		rows := map[string]row{}
		for _, m := range theGate.EndToEnd {
			if !slices.Contains(m.Workloads, w.Name) {
				continue
			}
			r := row{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Absolute: m.Absolute, Verdict: "ok"}
			over := false
			for s := range values {
				vs := values[s][m.Name]
				if len(vs) != n {
					return fail(fmt.Errorf("%s: %d of %d runs measured %s", w.Name, len(vs), n, m.Name))
				}
				q1, q2, q3 := quartiles(vs)
				r.Sets[s] = set{Median: q2, Q1: q1, Q3: q3}
				if m.Absolute {
					over = over || slices.Max(vs) > m.Bound
					continue
				}
				r.Sets[s].Spread = (q3 - q1) / q2
				over = over || (m.Name != "setup_s" && r.Sets[s].Spread > m.Bound)
			}
			if a, b := r.Sets[0].Median, r.Sets[1].Median; !m.Absolute {
				r.Difference = (max(a, b) - min(a, b)) / min(a, b)
				over = over || r.Difference > m.Bound
			}
			if over {
				r.Verdict = "unresolved"
				doc.Unresolved = append(doc.Unresolved, w.Name+"/"+m.Name)
				code = 1
			}
			rows[m.Name] = r
		}
		doc.Workloads[w.Name] = rows
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return code
}
