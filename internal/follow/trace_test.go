package follow

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/contq"
	"gpm/internal/generator"
	"gpm/internal/obs"
	"gpm/internal/obs/trace"
	"gpm/internal/serve"
)

// TestReplicationTraceContinuity drives a traced client.Apply at the
// leader and asserts the SAME trace ID surfaces on the follower: the
// commit event tailed over SSE carries the leader's traceparent, the
// follower's registry records its replica.apply span under that ID, and
// the follower's own /v1/tracez serves it.
func TestReplicationTraceContinuity(t *testing.T) {
	seed := int64(61)
	ltr := trace.New(trace.Config{Mode: trace.ModeAlways})
	lsrv := serve.New(contq.WithTracer(ltr), contq.WithMetrics(obs.NewRegistry()))
	lts := httptest.NewServer(lsrv)
	t.Cleanup(lts.Close)
	t.Cleanup(lsrv.Close)
	ctx := context.Background()

	ctr := trace.New(trace.Config{Mode: trace.ModeAlways})
	lc := client.New(lts.URL, client.WithTracer(ctr))
	g := generator.Synthetic(30, 90, generator.DefaultSchema(3), seed)
	if _, err := lc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, seed)
	if _, err := lc.Register(ctx, "p", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}

	// Follower whose (re)bootstrapped registries all sample every commit.
	ftr := trace.New(trace.Config{Mode: trace.ModeAlways})
	fsrv := serve.NewReadOnly(lts.URL)
	fts := httptest.NewServer(fsrv)
	t.Cleanup(fts.Close)
	t.Cleanup(fsrv.Close)
	f := New(fsrv, Config{
		Leader:          lts.URL,
		MaxLag:          1 << 20,
		Logger:          quietLogger(),
		Metrics:         obs.NewRegistry(),
		RegistryOptions: []contq.Option{contq.WithTracer(ftr)},
		ClientOptions: []client.Option{
			client.WithBackoff(10*time.Millisecond, 100*time.Millisecond),
		},
	})
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go f.Run(runCtx) //nolint:errcheck // canceled at test end
	waitConverged(t, f, lc)

	seq, err := lc.Apply(ctx, generator.Updates(g, 1, 0, seed+1))
	if err != nil {
		t.Fatal(err)
	}
	csnap, ok := ctr.BySeq(seq)
	if !ok {
		t.Fatalf("client retained no trace for seq %d", seq)
	}
	want := csnap.TraceID

	waitConverged(t, f, lc)
	fsnap, ok := ftr.BySeq(seq)
	if !ok {
		t.Fatalf("follower retained no trace for seq %d", seq)
	}
	if fsnap.TraceID != want {
		t.Fatalf("follower trace %s, want the client's %s", fsnap.TraceID, want)
	}
	found := false
	for _, sp := range fsnap.Spans {
		if sp.Name == "replica.apply" {
			found = true
		}
	}
	if !found {
		t.Fatalf("follower trace has no replica.apply span: %+v", fsnap.Spans)
	}

	// The follower's own tracez surface serves the leader-born trace.
	resp, err := http.Get(fts.URL + "/v1/tracez?trace=" + want)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower tracez: status %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["trace_id"] != want {
		t.Fatalf("follower tracez trace_id %v, want %s", doc["trace_id"], want)
	}
}
