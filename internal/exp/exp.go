// Package exp is the experiment harness: one driver per table/figure of the
// paper's Section 8, each regenerating the figure's rows or series. The
// drivers run at a configurable scale — Default() is laptop-quick and keeps
// every run in seconds; Paper() reproduces the paper's dataset sizes.
// Absolute numbers differ from the paper's 2010-era testbed; the shapes
// (who wins, by what factor, where crossovers fall) are the reproduction
// target, recorded in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"gpm/internal/generator"
	"gpm/internal/graph"
)

// Config controls dataset sizes and randomness for all drivers.
type Config struct {
	// Scale multiplies the paper's dataset sizes (1.0 = paper size).
	Scale float64
	// Seed drives all generators.
	Seed int64
	// SkipSlowBaselines drops the intentionally unscalable baselines
	// (HORNSAT, IncBMatchᵐ, VF2 full enumeration) from the large runs.
	SkipSlowBaselines bool
}

// Default returns the quick configuration used by tests and benchmarks.
func Default() Config { return Config{Scale: 0.04, Seed: 1} }

// Paper returns the configuration matching the paper's dataset sizes.
// Expect minutes-to-hours runtimes and gigabytes of memory for the
// matrix-based variants.
func Paper() Config { return Config{Scale: 1.0, Seed: 1, SkipSlowBaselines: true} }

// Table is a printable result table: one per figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// ShapeOK is the verdict of the figure's machine-checked expected shape
	// (the paper's claim as a predicate over the measured rows); nil for a
	// figure whose expected shape is still only prose in Notes.
	ShapeOK *bool
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = fmtDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if t.ShapeOK != nil {
		fmt.Fprintf(w, "  shape_ok: %t\n", *t.ShapeOK)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// timeIt measures one execution of f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// scaled returns max(lo, round(x*scale)).
func scaled(x int, scale float64, lo int) int {
	n := int(float64(x) * scale)
	if n < lo {
		n = lo
	}
	return n
}

// datasets for the experiment sections.

func (cfg Config) youtube() *graph.Graph { return generator.YouTube(cfg.Scale, cfg.Seed) }

func (cfg Config) citation() *graph.Graph { return generator.Citation(cfg.Scale, cfg.Seed) }

func (cfg Config) synthetic(nBase, mBase int) *graph.Graph {
	n := scaled(nBase, cfg.Scale, 50)
	m := scaled(mBase, cfg.Scale, 100)
	return generator.Synthetic(n, m, generator.DefaultSchema(8), cfg.Seed)
}

// All runs every driver and prints the tables to w.
func All(cfg Config, w io.Writer) {
	for _, t := range AllTables(cfg) {
		t.Fprint(w)
	}
}

// AllTables runs every driver.
func AllTables(cfg Config) []Table {
	return []Table{
		Fig16a(cfg),
		Fig16b(cfg),
		Fig16c(cfg),
		Fig17a(cfg),
		Fig17b(cfg),
		Fig17c(cfg),
		Fig17d(cfg),
		Fig18a(cfg),
		Fig18b(cfg),
		Fig18c(cfg),
		Fig18d(cfg),
		Fig19a(cfg),
		Fig19b(cfg),
		Fig19c(cfg),
		Fig19d(cfg),
		Fig20a(cfg),
		Fig20b(cfg),
		Fig20c(cfg),
		Fig20d(cfg),
		Fig20e(cfg),
		Fig20f(cfg),
		Table1Witnesses(cfg),
	}
}
