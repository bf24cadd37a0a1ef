//go:build e2e

// Package e2e runs gpserve as real processes — a journaled leader and
// read-only followers — and proves follower mode under chaos: bootstrap,
// live tailing, leader kill, leader restart from its journal, follower
// catch-up. Build-tagged so `go test ./...` stays hermetic; CI runs it as
// its own lane with `go test -tags e2e -race ./e2e/`.
//
// Set E2E_LOG_DIR to keep the per-process JSON logs (CI uploads them as
// an artifact on failure); set GPSERVE_BIN to skip the in-test build.
package e2e

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/generator"
)

var gpserveBin string

func TestMain(m *testing.M) {
	gpserveBin = os.Getenv("GPSERVE_BIN")
	if gpserveBin == "" {
		tmp, err := os.MkdirTemp("", "gpserve-e2e")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		gpserveBin = filepath.Join(tmp, "gpserve")
		build := exec.Command("go", "build", "-race", "-o", gpserveBin, "gpm/cmd/gpserve")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "building gpserve:", err)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// logDir is where process logs land: E2E_LOG_DIR when set (the CI
// artifact path), a test temp dir otherwise.
func logDir(t *testing.T) string {
	if dir := os.Getenv("E2E_LOG_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// freePort grabs an ephemeral port. The tiny close-to-bind window is an
// accepted e2e tradeoff.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// proc is one running gpserve process with its log capture.
type proc struct {
	name string
	url  string
	port int
	cmd  *exec.Cmd
	log  *os.File
}

// startServer launches gpserve on port with JSON logs appended to
// <logdir>/<name>.log (append mode so a restarted leader extends the same
// file).
func startServer(t *testing.T, dir, name string, port int, args ...string) *proc {
	t.Helper()
	lf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	full := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-log-format", "json",
	}, args...)
	cmd := exec.Command(gpserveBin, full...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		t.Fatalf("starting %s: %v", name, err)
	}
	p := &proc{name: name, url: fmt.Sprintf("http://127.0.0.1:%d", port), port: port, cmd: cmd, log: lf}
	t.Cleanup(func() { p.kill() })
	return p
}

// kill hard-stops the process (idempotent) and reaps it.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill() //nolint:errcheck // may already be dead
		p.cmd.Wait()         //nolint:errcheck // exit status is irrelevant
	}
	p.log.Close()
}

// readyStatus polls /v1/readyz once: the HTTP status, or 0 while the
// process is not accepting connections at all.
func readyStatus(url string) int {
	resp, err := http.Get(url + "/v1/readyz")
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	return resp.StatusCode
}

// waitReady polls /v1/readyz until it answers want, failing after 30s.
func waitReady(t *testing.T, p *proc, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if readyStatus(p.url) == want {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s: readyz never reached %d (last: %d)", p.name, want, readyStatus(p.url))
}

// waitSeq polls the follower until its commit head reaches seq.
func waitSeq(t *testing.T, c *client.Client, name string, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if info, err := c.GraphInfo(context.Background()); err == nil && info.Seq >= seq {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s: never reached seq %d", name, seq)
}

// contiguity tails one follower's raw commit stream for the whole chaos
// run and records any sequence gap or duplicate.
type contiguity struct {
	st         *client.CommitStream
	violations chan string
	commits    chan uint64 // newest commit seq seen, capacity 1
}

func tailContiguity(t *testing.T, c *client.Client) *contiguity {
	t.Helper()
	st, err := c.CommitStream(context.Background(), client.FromSeq(0))
	if err != nil {
		t.Fatalf("opening follower commit stream: %v", err)
	}
	ct := &contiguity{st: st, violations: make(chan string, 16), commits: make(chan uint64, 1)}
	go func() {
		var last uint64
		for ev := range st.C {
			switch ev.Type {
			case client.EventHead:
				last = ev.Seq
			case client.EventCommit:
				if ev.Seq != last+1 {
					select {
					case ct.violations <- fmt.Sprintf("commit %d after %d", ev.Seq, last):
					default:
					}
				}
				last = ev.Seq
				select {
				case <-ct.commits:
				default:
				}
				ct.commits <- last
			}
		}
	}()
	return ct
}

// check closes the stream and fails the test on any recorded violation.
func (ct *contiguity) check(t *testing.T, wantHead uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var newest uint64
	for newest < wantHead && time.Now().Before(deadline) {
		select {
		case newest = <-ct.commits:
		case <-time.After(100 * time.Millisecond):
		}
	}
	ct.st.Close()
	select {
	case v := <-ct.violations:
		t.Fatalf("follower commit stream broke contiguity: %s", v)
	default:
	}
	if newest < wantHead {
		t.Fatalf("follower commit stream delivered up to %d, want %d", newest, wantHead)
	}
}

// storm applies n generated single-update batches and returns the new head.
func storm(t *testing.T, lc *client.Client, nIns, nDel int, seed int64) uint64 {
	t.Helper()
	ctx := context.Background()
	snap, err := lc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	head := snap.Seq
	for _, u := range generator.Updates(snap.Graph, nIns, nDel, seed) {
		seq, err := lc.Apply(ctx, []gpm.Update{u})
		if err != nil {
			t.Fatalf("storm apply: %v", err)
		}
		head = seq
	}
	return head
}

// assertReadsServed proves the follower answers reads right now: graph
// info and every pattern result return without error.
func assertReadsServed(t *testing.T, c *client.Client, name string, ids []string) {
	t.Helper()
	ctx := context.Background()
	if _, err := c.GraphInfo(ctx); err != nil {
		t.Fatalf("%s: graph read failed: %v", name, err)
	}
	for _, id := range ids {
		if _, err := c.Result(ctx, id); err != nil {
			t.Fatalf("%s: result %q failed: %v", name, id, err)
		}
	}
}

// statsState fetches the follower block's state off /v1/stats (raw, so
// the assertion also covers the wire shape).
func statsState(t *testing.T, p *proc) string {
	t.Helper()
	resp, err := http.Get(p.url + "/v1/stats")
	if err != nil {
		t.Fatalf("%s: stats: %v", p.name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, state := range []string{"following", "disconnected", "bootstrapping"} {
		if strings.Contains(string(body), `"state":"`+state+`"`) {
			return state
		}
	}
	return ""
}

// TestFollowerChaos is the acceptance lane: journaled leader + two
// follower processes; register patterns, apply updates, kill the leader,
// restart it from its journal — asserting follower readyz flips
// 503→200→503→200 across bootstrap and outage, reads are answered
// throughout, the follower's own commit stream stays seq-contiguous, and
// both followers converge to the leader's exact results.
func TestFollowerChaos(t *testing.T) {
	dir := logDir(t)
	t.Logf("process logs: %s", dir)
	jdir := t.TempDir()
	seed := int64(61)

	// A follower pointed at a dead address listens immediately but must
	// gate readiness: 503 while bootstrapping, deterministically.
	deadPort := freePort(t)
	stuck := startServer(t, dir, "follower-stuck", freePort(t),
		"-follow", fmt.Sprintf("http://127.0.0.1:%d", deadPort))
	deadline := time.Now().Add(30 * time.Second)
	for readyStatus(stuck.url) != 503 {
		if time.Now().After(deadline) {
			t.Fatalf("bootstrapping follower readyz = %d, want 503", readyStatus(stuck.url))
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := statsState(t, stuck); got != "bootstrapping" {
		t.Fatalf("stuck follower state = %q, want bootstrapping", got)
	}
	stuck.kill()

	// The real topology: journaled leader, two followers.
	leaderPort := freePort(t)
	leader := startServer(t, dir, "leader", leaderPort, "-journal", jdir)
	waitReady(t, leader, 200)
	lc := client.New(leader.url)
	ctx := context.Background()

	g := generator.Synthetic(60, 200, generator.DefaultSchema(3), seed)
	if _, err := lc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]gpm.EngineKind{"p-sim": gpm.KindSim, "p-bsim": gpm.KindBSim, "p-iso": gpm.KindIso}
	ids := make([]string, 0, len(kinds))
	for id, k := range kinds {
		nodes, edges, kb := 3, 3, 1
		if k == gpm.KindBSim {
			kb = 2
		}
		if k == gpm.KindIso {
			edges = 2
		}
		p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: nodes, Edges: edges, Preds: 1, K: kb}, seed)
		if _, err := lc.Register(ctx, id, p, k); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		ids = append(ids, id)
	}

	f1 := startServer(t, dir, "follower1", freePort(t),
		"-follow", leader.url, "-follow-lag-max", "100000")
	f2 := startServer(t, dir, "follower2", freePort(t),
		"-follow", leader.url, "-follow-lag-max", "100000")
	waitReady(t, f1, 200) // 503→200: bootstrap complete
	waitReady(t, f2, 200)
	fc1, fc2 := client.New(f1.url), client.New(f2.url)

	// Tail follower1's own commit stream for the whole run: it must stay
	// seq-contiguous through the leader outage.
	tail := tailContiguity(t, fc1)

	head := storm(t, lc, 15, 10, seed+1)
	waitSeq(t, fc1, "follower1", head)
	waitSeq(t, fc2, "follower2", head)
	assertReadsServed(t, fc1, "follower1", ids)
	assertReadsServed(t, fc2, "follower2", ids)

	// Chaos: kill the leader outright (SIGKILL — no graceful journal close).
	leader.kill()
	waitReady(t, f1, 503) // 200→503: disconnected from the leader
	waitReady(t, f2, 503)
	if got := statsState(t, f1); got != "disconnected" {
		t.Fatalf("follower1 state during outage = %q, want disconnected", got)
	}
	// Reads keep being answered from local state during the outage...
	assertReadsServed(t, fc1, "follower1 (outage)", ids)
	assertReadsServed(t, fc2, "follower2 (outage)", ids)
	// ...and writes are refused with the typed envelope naming the leader.
	var apiErr *client.APIError
	if _, err := fc1.Apply(ctx, []gpm.Update{gpm.Insert(1, 2)}); err == nil {
		t.Fatal("follower accepted a write")
	} else if !errors.As(err, &apiErr) || apiErr.Code != client.CodeReadOnly || apiErr.Leader != leader.url {
		t.Fatalf("follower write during outage: %v, want read_only naming %s", err, leader.url)
	}

	// Recovery: restart the leader from its journal on the same port.
	leader = startServer(t, dir, "leader", leaderPort, "-journal", jdir)
	waitReady(t, leader, 200)
	waitReady(t, f1, 200) // 503→200: reconnected and caught up
	waitReady(t, f2, 200)

	head = storm(t, lc, 12, 8, seed+2)
	waitSeq(t, fc1, "follower1", head)
	waitSeq(t, fc2, "follower2", head)
	tail.check(t, head)

	// Convergence: both followers serve the leader's exact relation for
	// every pattern kind, at the same commit sequence.
	for _, id := range ids {
		lr, err := lc.Result(ctx, id)
		if err != nil {
			t.Fatalf("leader result %q: %v", id, err)
		}
		for name, fc := range map[string]*client.Client{"follower1": fc1, "follower2": fc2} {
			fr, err := fc.Result(ctx, id)
			if err != nil {
				t.Fatalf("%s result %q: %v", name, id, err)
			}
			if fr.Seq != lr.Seq || fr.Size != lr.Size {
				t.Fatalf("%s %q: (seq %d, size %d) diverged from leader (seq %d, size %d)",
					name, id, fr.Seq, fr.Size, lr.Seq, lr.Size)
			}
			if !samePairs(lr.Pairs, fr.Pairs) {
				t.Fatalf("%s %q: relation differs from leader at seq %d", name, id, lr.Seq)
			}
		}
	}
}

// samePairs compares two match relations as sets.
func samePairs(a, b []gpm.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[gpm.Pair]bool, len(a))
	for _, p := range a {
		set[p] = true
	}
	for _, p := range b {
		if !set[p] {
			return false
		}
	}
	return true
}
