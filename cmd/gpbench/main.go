// Command gpbench regenerates the paper's experimental tables and figures
// (Section 8), each an entry of exp.Figures; -fig selects one,
// -all runs the whole suite. -scale trades fidelity for speed: 1.0
// reproduces the paper's dataset sizes, the default keeps every run
// laptop-quick. -json switches the output to one machine-readable JSON
// object per figure.
//
// Every figure states its expected shape as a predicate over its rows and
// reports the verdict (shape_ok). After printing every figure, gpbench
// exits 1 if a gated figure's verdict is false — the CI contract, run at
// -scale 0.05 -seed 42 -skip-slow. Wall-clock regressions are the repo
// benchmark's job (bench/), not gpbench's.
//
// Usage:
//
//	gpbench -all
//	gpbench -fig 18a -scale 0.1
//	gpbench -fig 20b -seed 7
//	gpbench -all -json | jq '{figure, shape_ok, gated}'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"gpm/internal/exp"
	"gpm/internal/par"
)

// jsonRun is the machine-readable form of one figure run (-json): the
// table verbatim plus the run's identity, verdict and wall-clock cost.
type jsonRun struct {
	Figure    string     `json:"figure"`
	Title     string     `json:"title"`
	Scale     float64    `json:"scale"`
	Seed      int64      `json:"seed"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	Shape     string     `json:"shape"`
	ShapeOK   bool       `json:"shape_ok"`
	Gated     bool       `json:"gated"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpbench: ")
	var (
		fig      = flag.String("fig", "", "figure to run: 16a…20f, net1, table1 or trace1 (comma-separated for several)")
		all      = flag.Bool("all", false, "run the whole suite")
		scale    = flag.Float64("scale", 0, "dataset scale factor (default: quick scale)")
		seed     = flag.Int64("seed", 1, "random seed")
		skipSlow = flag.Bool("skip-slow", false, "skip the intentionally unscalable baselines")
		workers  = flag.Int("workers", 0, "worker goroutines for parallel hot paths (0 = GOMAXPROCS, 1 = serial)")
		jsonOut  = flag.Bool("json", false, "emit one JSON object per run instead of text tables")
	)
	flag.Parse()
	par.SetDefaultWorkers(*workers)

	cfg := exp.Default()
	cfg.Seed = *seed
	if *scale > 0 {
		cfg.Scale = *scale
	}
	cfg.SkipSlowBaselines = *skipSlow

	var figs []exp.Figure
	switch {
	case *all:
		figs = exp.Figures
	case *fig != "":
		for _, name := range strings.Split(*fig, ",") {
			f, ok := lookup(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown figure %q; available: %s", name, available())
			}
			figs = append(figs, f)
		}
	default:
		fmt.Printf("available figures: %s\nrun with -fig <name> or -all\n", available())
		return
	}

	enc := json.NewEncoder(os.Stdout)
	var failed []string
	for _, f := range figs {
		start := time.Now()
		t := f.Run(cfg)
		elapsed := time.Since(start)
		if f.Gated && !t.ShapeOK {
			failed = append(failed, f.Name)
		}
		if !*jsonOut {
			t.Fprint(os.Stdout)
			continue
		}
		run := jsonRun{
			Figure: f.Name, Title: t.Title, Scale: cfg.Scale, Seed: cfg.Seed,
			Columns: t.Columns, Rows: t.Rows, Notes: t.Notes,
			Shape: t.Shape, ShapeOK: t.ShapeOK, Gated: f.Gated,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		}
		if err := enc.Encode(run); err != nil {
			log.Fatal(err)
		}
	}
	if len(failed) > 0 {
		log.Fatalf("gated shape verdict false: %s", strings.Join(failed, " "))
	}
}

func lookup(name string) (exp.Figure, bool) {
	for _, f := range exp.Figures {
		if f.Name == name {
			return f, true
		}
	}
	return exp.Figure{}, false
}

func available() string {
	names := make([]string, len(exp.Figures))
	for i, f := range exp.Figures {
		names[i] = f.Name
	}
	return strings.Join(names, " ")
}
