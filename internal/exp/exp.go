// Package exp is the experiment harness: one driver per table/figure of the
// paper's Section 8, each regenerating the figure's rows or series. The
// drivers run at a configurable scale — Default() is laptop-quick and keeps
// every run in seconds; Paper() reproduces the paper's dataset sizes.
// Absolute numbers differ from the paper's 2010-era testbed; the shapes
// (who wins, by what factor, where crossovers fall) are the reproduction
// target: every figure states its expected shape as a predicate over the
// rows it measured and reports the verdict (Table.ShapeOK).
// Figures lists the suite; its gated entries are gpbench's CI contract.
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
	// Shape states the figure's expected shape as a predicate over the
	// measured rows; ShapeOK is its verdict.
	Shape   string
	ShapeOK bool
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
	fmt.Fprintf(w, "  shape: %s\n  shape_ok: %t\n", t.Shape, t.ShapeOK)
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

// Figure is one entry of the suite: a table or figure of the paper's
// Section 8, or one of this implementation's own studies.
type Figure struct {
	Name string             // the name gpbench -fig selects it by
	Run  func(Config) Table // measures the figure's rows and verdict
	// Gated makes a false verdict fail gpbench. A figure is gated once its
	// verdict has held on every run at the CI configuration (-scale 0.05
	// -seed 42 -skip-slow); every other figure is reported only.
	Gated bool
	// Timed marks a verdict that compares wall-clock cells, so it can flap
	// where the rows are microseconds. An untimed verdict compares counts,
	// which a seed fixes.
	Timed bool
}

// Figures is the whole suite, in gpbench's print order.
var Figures = []Figure{
	{Name: "16a", Run: Fig16a, Gated: true},
	{Name: "16b", Run: Fig16b, Timed: true},
	{Name: "16c", Run: Fig16c, Gated: true},
	{Name: "17a", Run: Fig17a, Timed: true},
	{Name: "17b", Run: Fig17b, Timed: true},
	{Name: "17c", Run: Fig17c, Timed: true},
	{Name: "17d", Run: Fig17d, Timed: true},
	{Name: "18a", Run: Fig18a, Timed: true},
	{Name: "18b", Run: Fig18b, Timed: true},
	{Name: "18c", Run: Fig18c, Timed: true},
	{Name: "18d", Run: Fig18d, Timed: true},
	{Name: "19a", Run: Fig19a, Gated: true, Timed: true},
	{Name: "19b", Run: Fig19b, Gated: true, Timed: true},
	{Name: "19c", Run: Fig19c, Gated: true, Timed: true},
	{Name: "19d", Run: Fig19d, Gated: true, Timed: true},
	{Name: "20a", Run: Fig20a},
	{Name: "20b", Run: Fig20b, Gated: true},
	{Name: "20c", Run: Fig20c, Timed: true},
	{Name: "20d", Run: Fig20d, Timed: true},
	{Name: "20e", Run: Fig20e, Gated: true},
	{Name: "20f", Run: Fig20f, Timed: true},
	{Name: "net1", Run: FigNet1, Timed: true},
	{Name: "table1", Run: Table1Witnesses, Gated: true},
	{Name: "trace1", Run: FigTrace1, Gated: true},
}
