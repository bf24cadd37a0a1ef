package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Scale: 0.008, Seed: 3} }

func TestEveryDriverProducesRows(t *testing.T) {
	cfg := tiny()
	seen := make(map[string]bool, len(Figures))
	for _, f := range Figures {
		if seen[f.Name] {
			t.Errorf("%s listed twice", f.Name)
		}
		seen[f.Name] = true
		tab := f.Run(cfg)
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", f.Name)
		}
		if len(tab.Columns) == 0 {
			t.Errorf("%s: no columns", f.Name)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s: row width %d != %d columns", f.Name, len(row), len(tab.Columns))
			}
		}
		// Every figure states its expected shape as a checked predicate. A
		// gated verdict over counts holds at any scale; a timed one belongs
		// to gpbench at the CI scale, where the rows are milliseconds.
		if tab.Shape == "" {
			t.Errorf("%s: no expected shape", f.Name)
		}
		if f.Gated && !f.Timed && !tab.ShapeOK {
			t.Errorf("%s: gated shape %q is false:\n%v", f.Name, tab.Shape, tab.Rows)
		}
	}
}

func TestTable1WitnessShape(t *testing.T) {
	tab := Table1Witnesses(tiny())
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 witness families, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] != "0" {
			t.Errorf("%s: |ΔM| after e1 = %s, want 0", row[0], row[2])
		}
		if row[3] == "0" {
			t.Errorf("%s: |ΔM| after e2 = 0, want Θ(n)", row[0])
		}
	}
}

func TestMinDeltaReductionMonotone(t *testing.T) {
	tab := Fig20a(tiny())
	for _, row := range tab.Rows {
		var orig, relevant int
		if _, err := fmt.Sscan(row[1], &orig); err != nil {
			t.Fatalf("bad original %q", row[1])
		}
		if _, err := fmt.Sscan(row[3], &relevant); err != nil {
			t.Fatalf("bad relevant %q", row[3])
		}
		if relevant > orig {
			t.Errorf("α=%s: relevant %d exceeds original %d", row[0], relevant, orig)
		}
	}
}

func TestNetworkFigureShape(t *testing.T) {
	tab := FigNet1(tiny())
	prevSaved := -1
	for _, row := range tab.Rows {
		var joins, saved int
		if _, err := fmt.Sscan(row[5], &joins); err != nil {
			t.Fatalf("bad joins %q", row[5])
		}
		if _, err := fmt.Sscan(row[6], &saved); err != nil {
			t.Fatalf("bad repairs saved %q", row[6])
		}
		// Renumbered patterns collapse onto their family's join, so the
		// join count is bounded by the family count regardless of N...
		if joins > 5 {
			t.Errorf("%s patterns: %d joins exceed the 5 families", row[0], joins)
		}
		// ...and the saved-repair count grows with the pattern count.
		if saved <= prevSaved {
			t.Errorf("%s patterns: repairs saved %d did not grow (prev %d)", row[0], saved, prevSaved)
		}
		prevSaved = saved
	}
}

func TestTracingFigureShape(t *testing.T) {
	tab := FigTrace1(tiny())
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 sampling rows, got %d", len(tab.Rows))
	}
	retained := make(map[string]int, 3)
	for _, row := range tab.Rows {
		var n int
		if _, err := fmt.Sscan(row[4], &n); err != nil {
			t.Fatalf("bad retained count %q", row[4])
		}
		retained[row[0]] = n
	}
	// Off must record nothing (the gated fast path); always retains one
	// trace per commit chunk.
	if retained["off"] != 0 {
		t.Errorf("off retained %d traces, want 0", retained["off"])
	}
	if retained["always"] != traceChunks {
		t.Errorf("always retained %d traces, want %d", retained["always"], traceChunks)
	}
	if r := retained["ratio:0.1"]; r <= 0 || r >= traceChunks {
		t.Errorf("ratio retained %d traces, want strictly between 0 and %d", r, traceChunks)
	}
}

func TestTablePrinting(t *testing.T) {
	tab := Table{
		Title:   "sample",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow(1, "x")
	tab.Shape = "a ≤ bb"
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== sample ==", "a", "bb", "note: a note", "shape: a ≤ bb", "shape_ok: false"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigs(t *testing.T) {
	if Default().Scale <= 0 || Paper().Scale != 1.0 {
		t.Fatal("config scales wrong")
	}
}
