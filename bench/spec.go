package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is BENCHMARK.json: the names, units, directions and bounds every
// later performance claim refers to. The program reads it instead of
// repeating it, so the file and the output cannot drift apart.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// gate is gate.json: what the issue wanted in BENCHMARK.json and the
// driver's schema has no room for. EndToEnd is the whole end-to-end list,
// each metric with the workloads it applies to; BENCHMARK.json's end_to_end
// is its DriverGated part (TestBenchmarkJSONIsTheDriverGatedPartOfTheGate).
type gate struct {
	Seed     int64             `json:"seed"`
	Sizes    map[string]sizing `json:"sizes"`
	EndToEnd []gateMetric      `json:"end_to_end"`
}

type gateMetric struct {
	metricSpec
	// Absolute makes Bound a ceiling on the value itself, not a share of
	// the parent's median: failed_ops_share must be 0.
	Absolute bool `json:"absolute,omitempty"`
	// DriverGated marks the rows BENCHMARK.json carries: every workload
	// measures them, they are never 0, and they agree with themselves on a
	// shared machine. The others are held to their bounds by -aa alone.
	DriverGated bool     `json:"driver_gated,omitempty"`
	Workloads   []string `json:"workloads"`
}

//go:embed gate.json
var gateJSON []byte

var theGate = func() gate {
	var g gate
	if err := json.Unmarshal(gateJSON, &g); err != nil {
		panic("bench: gate.json: " + err.Error()) // embedded at build time: a bug
	}
	return g
}()

// units maps every declared metric, of either file, to its unit.
func (sp *spec) units() map[string]string {
	out := make(map[string]string)
	for _, m := range sp.EndToEnd {
		out[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		out[m.Name] = m.Unit
	}
	for _, m := range theGate.EndToEnd {
		out[m.Name] = m.Unit
	}
	return out
}

// metricValue is one metric as printed: the number as measured, and its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared picks the declared metrics out of a run's measurements. A
// declared metric the run did not produce is an error: the benchmark
// promises every name on every workload.
func declared(specs []metricSpec, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	var missing []string
	for _, m := range specs {
		v, ok := got[m.Name]
		if !ok || math.IsNaN(v) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("declared in BENCHMARK.json but not measured: %v", missing)
	}
	return out, nil
}
