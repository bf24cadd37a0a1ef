package lockcheck_test

import (
	"strings"
	"testing"

	"gpmvet/internal/analysistest"
	"gpmvet/internal/lockcheck"
)

// TestLockcheck runs the main fixture with commitInner on the allowlist,
// the way a .gpmvet.json would configure it.
func TestLockcheck(t *testing.T) {
	if err := lockcheck.Analyzer.Flags.Set("allow", "a.commitInner"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lockcheck.Analyzer.Flags.Set("allow", ""); err != nil {
			t.Fatal(err)
		}
	}()

	_, suppressed := analysistest.Run(t, "testdata", lockcheck.Analyzer, "a")

	if len(suppressed) != 1 {
		t.Fatalf("suppressed = %d findings, want exactly the BumpIgnored escape hatch: %+v", len(suppressed), suppressed)
	}
	if got := suppressed[0].Suppressed; !strings.Contains(got, "held transitively") {
		t.Errorf("suppression reason = %q, want the fixture's ignore reason", got)
	}
}

// TestNoAllowlist proves the allowlist is load-bearing: with none
// configured, the same commitInner shape is a violation.
func TestNoAllowlist(t *testing.T) {
	live, suppressed := analysistest.Run(t, "testdata", lockcheck.Analyzer, "b")
	if len(live) != 1 {
		t.Fatalf("live = %d findings, want 1: %+v", len(live), live)
	}
	if len(suppressed) != 0 {
		t.Fatalf("suppressed = %+v, want none", suppressed)
	}
}
