// Command gpbench regenerates the paper's experimental tables and figures
// (Section 8). Each figure has a driver; -fig selects one, -all runs the
// whole suite. -scale trades fidelity for speed: 1.0 reproduces the
// paper's dataset sizes, the default keeps every run laptop-quick.
// -json switches the output to one machine-readable JSON object per run,
// so the bench trajectory can be tracked across revisions.
//
// Usage:
//
//	gpbench -all
//	gpbench -fig 18a -scale 0.1
//	gpbench -fig 20b -seed 7
//	gpbench -all -json | jq .elapsed_ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"gpm/internal/contq"
	"gpm/internal/exp"
	"gpm/internal/obs"
	"gpm/internal/par"
)

var drivers = map[string]func(exp.Config) exp.Table{
	"16a": exp.Fig16a, "16b": exp.Fig16b, "16c": exp.Fig16c,
	"17a": exp.Fig17a, "17b": exp.Fig17b, "17c": exp.Fig17c, "17d": exp.Fig17d,
	"18a": exp.Fig18a, "18b": exp.Fig18b, "18c": exp.Fig18c, "18d": exp.Fig18d,
	"19a": exp.Fig19a, "19b": exp.Fig19b, "19c": exp.Fig19c, "19d": exp.Fig19d,
	"20a": exp.Fig20a, "20b": exp.Fig20b, "20c": exp.Fig20c, "20d": exp.Fig20d,
	"20e": exp.Fig20e, "20f": exp.Fig20f,
	"net1":   exp.FigNet1,
	"trace1": exp.FigTrace1,
	"table1": exp.Table1Witnesses,
}

// jsonRun is the machine-readable form of one figure run (-json): the
// table verbatim plus the run's identity and wall-clock cost.
type jsonRun struct {
	Figure    string     `json:"figure"`
	Title     string     `json:"title"`
	Scale     float64    `json:"scale"`
	Seed      int64      `json:"seed"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ShapeOK   *bool      `json:"shape_ok,omitempty"` // exp.Table.ShapeOK; absent where no shape is checked yet
	ElapsedMS float64    `json:"elapsed_ms"`
	// CommitStageMS breaks the run's registry commit time down by pipeline
	// stage (validate, network, repair, journal, publish, total),
	// cumulative milliseconds over the run — present only when the figure
	// drove the contq registry (batch-engine figures commit nothing).
	CommitStageMS map[string]float64 `json:"commit_stage_ms,omitempty"`
}

// stageDelta subtracts per-stage sums captured before a run from the sums
// after it, dropping stages that saw no time.
func stageDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpbench: ")
	var (
		fig      = flag.String("fig", "", "figure to run: 16a…20f or table1 (comma-separated for several)")
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

	var names []string
	switch {
	case *all:
		names = allNames()
	case *fig != "":
		for _, name := range strings.Split(*fig, ",") {
			name = strings.TrimSpace(name)
			if _, ok := drivers[name]; !ok {
				log.Fatalf("unknown figure %q; available: %s", name, available())
			}
			names = append(names, name)
		}
	default:
		fmt.Printf("available figures: %s\nrun with -fig <name> or -all\n", available())
		return
	}

	enc := json.NewEncoder(os.Stdout)
	for _, name := range names {
		// Figures drive registries on the process-default obs registry;
		// diffing the cumulative stage sums around the run attributes
		// commit-pipeline time to this figure without touching any driver.
		stagesBefore := contq.CommitStageSums(obs.Default())
		start := time.Now()
		t := drivers[name](cfg)
		elapsed := time.Since(start)
		if *jsonOut {
			run := jsonRun{
				Figure: name, Title: t.Title, Scale: cfg.Scale, Seed: cfg.Seed,
				Columns: t.Columns, Rows: t.Rows, Notes: t.Notes, ShapeOK: t.ShapeOK,
				ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
				CommitStageMS: stageDelta(stagesBefore, contq.CommitStageSums(obs.Default())),
			}
			if err := enc.Encode(run); err != nil {
				log.Fatal(err)
			}
			continue
		}
		t.Fprint(os.Stdout)
	}
}

func allNames() []string {
	names := make([]string, 0, len(drivers))
	for n := range drivers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func available() string { return strings.Join(allNames(), " ") }
