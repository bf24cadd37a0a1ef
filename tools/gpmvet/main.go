// Command gpmvet is the repo's invariant checker: a multichecker over
// the five project-specific analyzers (lockcheck, nilspan, stdlibonly,
// envelopecheck, ctxflow) that fails the build the moment a call site
// violates the engine's concurrency, tracing, or wire contracts.
//
// Two invocation modes:
//
//	gpmvet ./...                     # standalone, from the repo root
//	go vet -vettool=$(which gpmvet) ./...   # as a vet tool
//
// Standalone mode shells out to `go list` for package discovery, so
// build tags and module boundaries behave exactly like the build. The
// vettool mode speaks the cmd/go unitchecker protocol (-V=full,
// -flags, one *.cfg argument per package).
//
// -json emits a machine-readable findings summary (live findings,
// suppressed //gpmvet:ignore escape hatches with their reasons, and
// per-analyzer counts) — the CI lint lane archives it so lint trends
// ride the same artifact pattern as the bench history.
//
// Per-analyzer flags are exposed as -<analyzer>.<flag> and may also be
// set in a .gpmvet.json at the repo root:
//
//	{"lockcheck": {"allow": "pkg.coordinator"}}
//
// Command-line flags win over the config file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"gpmvet/internal/analysis"
	"gpmvet/internal/ctxflow"
	"gpmvet/internal/envelopecheck"
	"gpmvet/internal/lockcheck"
	"gpmvet/internal/nilspan"
	"gpmvet/internal/stdlibonly"
)

const version = "v0.1.0"

// analyzers is the suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	ctxflow.Analyzer,
	envelopecheck.Analyzer,
	lockcheck.Analyzer,
	nilspan.Analyzer,
	stdlibonly.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("gpmvet", flag.ContinueOnError)
	versionFlag := fs.String("V", "", "print version and exit (the cmd/go vettool handshake passes -V=full)")
	listFlags := fs.Bool("flags", false, "print the analyzer flags as JSON (cmd/go vettool protocol)")
	jsonOut := fs.Bool("json", false, "emit findings as a machine-readable JSON summary")
	configPath := fs.String("config", "", "path to a .gpmvet.json flag config (default: nearest .gpmvet.json up from the working directory)")
	for _, a := range analyzers {
		a := a
		a.Flags.VisitAll(func(f *flag.Flag) {
			fs.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *versionFlag != "" {
		fmt.Printf("gpmvet version %s\n", version)
		return 0
	}
	if *listFlags {
		printFlagDefs(fs)
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVettool(fs, *configPath, *jsonOut, rest[0])
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	applyConfig(fs, *configPath, ".")
	live, suppressed, err := analyzePatterns(".", rest, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpmvet: %v\n", err)
		return 2
	}
	return report(live, suppressed, *jsonOut)
}

// report prints the findings and returns the process exit code.
func report(live, suppressed []analysis.Finding, jsonOut bool) int {
	if jsonOut {
		doc := summary{
			Version:    version,
			Analyzers:  analyzerNames(),
			Findings:   orEmpty(live),
			Suppressed: orEmpty(suppressed),
		}
		doc.Counts.Findings = len(live)
		doc.Counts.Suppressed = len(suppressed)
		doc.Counts.ByAnalyzer = map[string]int{}
		for _, f := range live {
			doc.Counts.ByAnalyzer[f.Analyzer]++
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck // stdout write failure has no recovery
	} else {
		for _, f := range live {
			fmt.Printf("%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
		}
		fmt.Fprintf(os.Stderr, "gpmvet: %d finding(s), %d suppressed by gpmvet:ignore\n", len(live), len(suppressed))
	}
	if len(live) > 0 {
		return 1
	}
	return 0
}

// summary is the -json document.
type summary struct {
	Version    string             `json:"gpmvet"`
	Analyzers  []string           `json:"analyzers"`
	Findings   []analysis.Finding `json:"findings"`
	Suppressed []analysis.Finding `json:"suppressed"`
	Counts     struct {
		Findings   int            `json:"findings"`
		Suppressed int            `json:"suppressed"`
		ByAnalyzer map[string]int `json:"by_analyzer"`
	} `json:"counts"`
}

func analyzerNames() []string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return names
}

func orEmpty(fs []analysis.Finding) []analysis.Finding {
	if fs == nil {
		return []analysis.Finding{}
	}
	return fs
}

// listedPackage is the slice of `go list -json` output gpmvet needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Module     *struct{ Path string }
}

// analyzePatterns loads the packages matching patterns (resolved in
// dir) via `go list` and runs the suite over each.
func analyzePatterns(dir string, patterns []string, suite []*analysis.Analyzer) (live, suppressed []analysis.Finding, err error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		pkg := analysis.Package{Name: p.Name, ImportPath: p.ImportPath, Dir: p.Dir}
		if p.Module != nil {
			pkg.Module = p.Module.Path
		}
		fset := token.NewFileSet()
		files, err := analysis.ParseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %v", p.ImportPath, err)
		}
		l, s, err := analysis.Run(fset, pkg, files, suite)
		if err != nil {
			return nil, nil, fmt.Errorf("analyzing %s: %v", p.ImportPath, err)
		}
		live = append(live, l...)
		suppressed = append(suppressed, s...)
	}
	return live, suppressed, nil
}

// vetConfig is the subset of the cmd/go unitchecker *.cfg document the
// suite needs (the rest configures type-checking, which gpmvet's
// syntax-only analyzers skip).
type vetConfig struct {
	ID         string
	Dir        string
	ImportPath string
	ModulePath string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

// runVettool handles one `go vet -vettool=gpmvet` package invocation.
func runVettool(fs *flag.FlagSet, configPath string, jsonOut bool, cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpmvet: reading %s: %v\n", cfgPath, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gpmvet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// cmd/go expects the facts file regardless; gpmvet keeps no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "gpmvet: writing %s: %v\n", cfg.VetxOutput, err)
			return 2
		}
	}
	// Dependency packages run facts-only; gpmvet keeps no facts, so
	// there is nothing further to do for them.
	if cfg.VetxOnly {
		return 0
	}
	applyConfig(fs, configPath, cfg.Dir)
	pkg := analysis.Package{ImportPath: cfg.ImportPath, Module: cfg.ModulePath, Dir: cfg.Dir}
	// The invariants bind production code; tests violate them
	// deliberately (root contexts, raw status writes). Standalone mode
	// never sees test files (go list GoFiles excludes them) — drop them
	// here too so both modes agree.
	var goFiles []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			goFiles = append(goFiles, f)
		}
	}
	fset := token.NewFileSet()
	files, err := analysis.ParseFiles(fset, cfg.Dir, goFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpmvet: parsing %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	// The *.cfg document carries no package name, and allowlists match
	// on it ("pkg.coordinator") — take it from the source itself
	// so both invocation modes agree.
	if len(files) > 0 {
		pkg.Name = files[0].Name.Name
	}
	live, _, err := analysis.Run(fset, pkg, files, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpmvet: analyzing %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	if len(live) == 0 {
		return 0
	}
	if jsonOut {
		// The unitchecker JSON shape: {"pkg": {"analyzer": [{posn, message}]}}.
		byAnalyzer := map[string][]map[string]string{}
		for _, f := range live {
			byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], map[string]string{"posn": f.Pos, "message": f.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{cfg.ImportPath: byAnalyzer}) //nolint:errcheck // stdout write failure has no recovery
		return 0
	}
	for _, f := range live {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
	}
	return 2
}

// printFlagDefs answers the cmd/go -flags query: the JSON flag list a
// vet driver may pass through.
func printFlagDefs(fs *flag.FlagSet) {
	type flagDef struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	defs := []flagDef{}
	fs.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		defs = append(defs, flagDef{Name: f.Name, Bool: ok && b.IsBoolFlag(), Usage: f.Usage})
	})
	json.NewEncoder(os.Stdout).Encode(defs) //nolint:errcheck // stdout write failure has no recovery
}

// applyConfig loads the nearest .gpmvet.json (or the -config one) and
// sets analyzer flags not already set on the command line.
func applyConfig(fs *flag.FlagSet, explicit, startDir string) {
	path := explicit
	if path == "" {
		path = findConfig(startDir)
		if path == "" {
			return
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpmvet: reading config %s: %v\n", path, err)
		return
	}
	var cfg map[string]map[string]string
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gpmvet: parsing config %s: %v\n", path, err)
		return
	}
	setOnCLI := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setOnCLI[f.Name] = true })
	for _, a := range analyzers {
		vals, ok := cfg[a.Name]
		if !ok {
			continue
		}
		for key, val := range vals {
			if setOnCLI[a.Name+"."+key] {
				continue // command line wins
			}
			if err := a.Flags.Set(key, val); err != nil {
				fmt.Fprintf(os.Stderr, "gpmvet: config %s: %s.%s: %v\n", path, a.Name, key, err)
			}
		}
	}
}

// findConfig walks up from dir looking for .gpmvet.json.
func findConfig(dir string) string {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for {
		p := filepath.Join(dir, ".gpmvet.json")
		if _, err := os.Stat(p); err == nil {
			return p
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
