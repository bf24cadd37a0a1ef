package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a file tree under t.TempDir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestSeededViolationFails is the lane's demonstration requirement: a
// violation seeded into a guarded package makes the whole run fail.
// The module mirrors the real tree (module gpm, internal/obs guarded
// by stdlibonly's default package list, internal/serve by
// envelopecheck's), exercising the same go-list loading path the CI
// lane uses.
func TestSeededViolationFails(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module gpm\n\ngo 1.24\n",
		"internal/obs/obs.go": `package obs

import "github.com/prometheus/client_golang/prometheus"

var _ = prometheus.NewRegistry
`,
		"internal/serve/serve.go": `package serve

import "net/http"

func h(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "nope", http.StatusBadRequest)
}
`,
	})
	live, suppressed, err := analyzePatterns(root, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if len(suppressed) != 0 {
		t.Fatalf("suppressed = %+v, want none", suppressed)
	}
	byAnalyzer := map[string]int{}
	for _, f := range live {
		byAnalyzer[f.Analyzer]++
	}
	if byAnalyzer["stdlibonly"] != 1 || byAnalyzer["envelopecheck"] != 1 {
		t.Fatalf("findings by analyzer = %v, want one stdlibonly and one envelopecheck", byAnalyzer)
	}
	if code := report(live, suppressed, true); code != 1 {
		t.Fatalf("report exit code = %d, want 1 on findings", code)
	}
}

// TestCleanTreePasses is the inverse: a guarded package using only the
// stdlib analyzes clean and exits 0.
func TestCleanTreePasses(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module gpm\n\ngo 1.24\n",
		"internal/obs/obs.go": `package obs

import "fmt"

var _ = fmt.Sprintf
`,
	})
	live, suppressed, err := analyzePatterns(root, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("live = %+v, want none", live)
	}
	if code := report(live, suppressed, false); code != 0 {
		t.Fatalf("report exit code = %d, want 0 on a clean tree", code)
	}
}

// TestIgnoreEscapeHatch proves the end-to-end suppression contract:
// the ignored violation does not fail the run but is counted, and a
// reason-less ignore is itself a finding.
func TestIgnoreEscapeHatch(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module gpm\n\ngo 1.24\n",
		"internal/obs/obs.go": `package obs

import "github.com/acme/dep" //gpmvet:ignore vendored shim, audited 2026-08

var _ = dep.Thing
`,
		"internal/obs/trace/trace.go": `package trace

//gpmvet:ignore
import "strings"

var _ = strings.TrimSpace
`,
	})
	live, suppressed, err := analyzePatterns(root, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if len(suppressed) != 1 || !strings.Contains(suppressed[0].Suppressed, "vendored shim") {
		t.Fatalf("suppressed = %+v, want the audited vendored-shim entry", suppressed)
	}
	if len(live) != 1 || !strings.Contains(live[0].Message, "needs a reason") {
		t.Fatalf("live = %+v, want exactly the reason-less ignore finding", live)
	}
}

// TestConfigPrecedence: .gpmvet.json supplies flag values, the command
// line overrides them.
func TestConfigPrecedence(t *testing.T) {
	root := writeTree(t, map[string]string{
		".gpmvet.json": `{"lockcheck": {"allow": "pkg.coordinator"}}`,
	})
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var cliAllow string
	fs.StringVar(&cliAllow, "lockcheck.allow", "", "")

	reset := func() {
		for _, a := range analyzers {
			if a.Name == "lockcheck" {
				if err := a.Flags.Set("allow", ""); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	defer reset()

	applyConfig(fs, "", root)
	got := lookupAnalyzerFlag(t, "lockcheck", "allow")
	if got != "pkg.coordinator" {
		t.Fatalf("allow after config = %q, want the config value", got)
	}

	reset()
	if err := fs.Parse([]string{"-lockcheck.allow", "x.y"}); err != nil {
		t.Fatal(err)
	}
	// Simulate the CLI having set the prefixed flag: applyConfig must
	// not clobber it. The real driver shares flag.Values between the
	// command set and the analyzer set; here only precedence matters.
	applyConfig(fs, "", root)
	if got := lookupAnalyzerFlag(t, "lockcheck", "allow"); got != "" {
		t.Fatalf("allow after CLI override = %q, want config skipped (CLI wins)", got)
	}
}

func lookupAnalyzerFlag(t *testing.T, analyzer, name string) string {
	t.Helper()
	for _, a := range analyzers {
		if a.Name == analyzer {
			return a.Flags.Lookup(name).Value.String()
		}
	}
	t.Fatalf("no analyzer %q", analyzer)
	return ""
}

// TestVersionHandshake covers the cmd/go -V=full probe.
func TestVersionHandshake(t *testing.T) {
	if code := run([]string{"-V=full"}); code != 0 {
		t.Fatalf("-V=full exit = %d, want 0", code)
	}
}
