package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
)

// env is where a run may touch the file system: everything it writes goes
// under <repo>/bench/out, which .gitignore names.
type env struct {
	root string // the repository checkout
	out  string // bench/out: the gpserve build, span files
	work string // this process's scratch directory: journals, child logs
	keep bool   // work was named with -keep: leave it behind

	mu      sync.Mutex
	closers []func() // run on exit, newest first
	gpserve string   // built on first use
}

// findRoot walks up from the working directory to the checkout root, which
// is where BENCHMARK.json lives.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func newEnv(root, keep string) (*env, error) {
	e := &env{root: root, out: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	if keep != "" {
		abs, err := filepath.Abs(keep)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(abs, 0o755); err != nil {
			return nil, err
		}
		e.work, e.keep = abs, true
	} else {
		dir, err := os.MkdirTemp(e.out, "run-")
		if err != nil {
			return nil, err
		}
		e.work = dir
	}
	// A signal must not leave children or scratch directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	return e, nil
}

// onExit registers fn to run at cleanup and returns a function that runs it
// now and forgets it.
func (e *env) onExit(fn func()) (done func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := len(e.closers)
	e.closers = append(e.closers, fn)
	return func() {
		e.mu.Lock()
		f := e.closers[i]
		e.closers[i] = nil
		e.mu.Unlock()
		if f != nil {
			f()
		}
	}
}

// cleanup stops what is still running and removes the scratch directory.
// It runs on normal exit, on a signal and on a panic in main's goroutine;
// children also carry Pdeathsig, so a crash of this process kills them too.
func (e *env) cleanup() {
	e.mu.Lock()
	closers := e.closers
	e.closers = nil
	e.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		if closers[i] != nil {
			closers[i]()
		}
	}
	if !e.keep {
		os.RemoveAll(e.work)
	}
}

// subdir makes a fresh directory under the scratch directory.
func (e *env) subdir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix+"-")
}

// gpserveBin builds cmd/gpserve once per process. The build lands in
// bench/out, so later runs in the same checkout only pay an up-to-date
// check; its time is outside every metric.
func (e *env) gpserveBin() (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gpserve != "" {
		return e.gpserve, nil
	}
	if _, err := exec.LookPath("go"); err != nil {
		return "", fmt.Errorf("the go tool is needed to build gpserve: %w", err)
	}
	bin := filepath.Join(e.out, "gpserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gpserve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gpserve: %v\n%s", err, out)
	}
	e.gpserve = bin
	return bin, nil
}

// writeTrace writes a traced run's spans, the layer shares derived from
// them, and which workload supplied each metric this one cannot measure, to
// bench/out/trace-<workload>.json (and beside the logs with -keep).
func (e *env) writeTrace(res *runResult) error {
	doc := struct {
		Workload    string             `json:"workload"`
		LayerShares map[string]float64 `json:"layer_self_share_of_op_wall"`
		Sources     map[string]string  `json:"metrics_from_a_pass_of_another_workload"`
		Spans       []span             `json:"spans"`
	}{res.Workload, layerShares(res.Spans), res.Sources, res.Spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	dirs := []string{e.out}
	if e.keep {
		dirs = append(dirs, e.work)
	}
	for _, dir := range dirs {
		if err := os.WriteFile(filepath.Join(dir, "trace-"+res.Workload+".json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
