//go:build e2e

package e2e

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/generator"
	"gpm/internal/obs/trace"
)

// tracezSpans polls a node's /v1/tracez for traceID until it appears (or
// the deadline passes) and returns the set of span names it holds. Spans
// are recorded when they End, which can trail the commit response by a
// beat (SSE delivery, replica apply), hence the poll.
func tracezSpans(t *testing.T, p *proc, traceID string) map[string]bool {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.url + "/v1/tracez?trace=" + traceID)
		if err != nil {
			t.Fatalf("%s: tracez: %v", p.name, err)
		}
		var doc struct {
			TraceID string `json:"trace_id"`
			Spans   []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil && doc.TraceID == traceID {
			names := make(map[string]bool, len(doc.Spans))
			for _, s := range doc.Spans {
				names[s.Name] = true
			}
			return names
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: trace %s never appeared in tracez (last status %d)", p.name, traceID, resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// requireSpans fails unless every wanted span name is present.
func requireSpans(t *testing.T, node string, names map[string]bool, want ...string) {
	t.Helper()
	for _, n := range want {
		if !names[n] {
			t.Fatalf("%s: trace missing span %q (have %v)", node, n, names)
		}
	}
}

// TestTraceSpansReplicationTopology is the tracing acceptance run: one
// traced client.Apply against a real leader process, and the SAME trace
// ID must link the client root span, the leader's HTTP ingest + commit
// stage + SSE delivery spans, and the follower's replica apply — each
// half retrievable from the respective node's /v1/tracez.
func TestTraceSpansReplicationTopology(t *testing.T) {
	dir := logDir(t)
	seed := int64(71)
	leader := startServer(t, dir, "trace-leader", freePort(t)) // -trace-sample defaults to always
	waitReady(t, leader, http.StatusOK)

	ctr := trace.New(trace.Config{Mode: trace.ModeAlways})
	lc := client.New(leader.url, client.WithTracer(ctr))
	ctx := context.Background()
	g := generator.Synthetic(40, 120, generator.DefaultSchema(3), seed)
	if _, err := lc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, seed)
	if _, err := lc.Register(ctx, "p", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}

	follower := startServer(t, dir, "trace-follower", freePort(t),
		"-follow", leader.url, "-follow-lag-max", "100000")
	fc := client.New(follower.url)
	waitReady(t, follower, http.StatusOK)

	// A live subscriber on the leader, through the traced SDK, so the
	// commit produces sse.deliver (server) and client.deliver (client)
	// spans on the same trace.
	st, err := lc.Stream(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ev := <-st.C; ev.Type != client.EventSnapshot {
		t.Fatalf("first stream event %q, want snapshot", ev.Type)
	}

	seq, err := lc.Apply(ctx, generator.Updates(g, 1, 0, seed+1))
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := ctr.BySeq(seq)
	if !ok {
		t.Fatalf("client tracer retained nothing for seq %d", seq)
	}
	want := snap.TraceID

	// The delta frame must carry the commit's traceparent.
	select {
	case ev := <-st.C:
		sc, ok := trace.Parse(ev.Trace)
		if !ok || sc.TraceID.String() != want {
			t.Fatalf("delta trace %q, want traceparent of %s", ev.Trace, want)
		}
		if ev.At.IsZero() {
			t.Fatal("delta carries no publish timestamp")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delta delivered")
	}

	// Leader: ingest, commit pipeline, and SSE delivery on one trace.
	requireSpans(t, "leader", tracezSpans(t, leader, want),
		"http.ingest", "commit", "stage.validate", "stage.journal", "stage.publish", "sse.deliver")

	// Follower: the replicated apply continues the same trace.
	waitSeq(t, fc, "trace-follower", seq)
	requireSpans(t, "follower", tracezSpans(t, follower, want),
		"replica.apply", "stage.publish")

	// Client: root span plus the delivery span closed on receipt.
	deadline := time.Now().Add(5 * time.Second)
	for {
		csnap, ok := ctr.Lookup(want)
		if ok {
			names := make(map[string]bool, len(csnap.Spans))
			for _, s := range csnap.Spans {
				names[s.Name] = true
			}
			if names["client.apply"] && names["client.deliver"] {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("client trace never completed: %+v", csnap)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// metricValue scrapes /v1/metricz and returns the value of the first
// sample whose name matches (with or without labels), and whether it was
// present at all.
func metricValue(t *testing.T, p *proc, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(p.url + "/v1/metricz")
	if err != nil {
		t.Fatalf("%s: metricz: %v", p.name, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // longer metric sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("%s: parsing %q: %v", p.name, line, err)
		}
		return v, true
	}
	return 0, false
}

// TestFollowerMetricsMove asserts the follower gauges are live on a real
// follower process: connected flips to 1, applied_seq tracks the
// leader's head as commits replicate, and the lag gauge is exported.
func TestFollowerMetricsMove(t *testing.T) {
	dir := logDir(t)
	seed := int64(83)
	leader := startServer(t, dir, "metrics-leader", freePort(t))
	waitReady(t, leader, http.StatusOK)
	lc := client.New(leader.url)
	ctx := context.Background()
	g := generator.Synthetic(40, 120, generator.DefaultSchema(3), seed)
	if _, err := lc.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}

	follower := startServer(t, dir, "metrics-follower", freePort(t),
		"-follow", leader.url, "-follow-lag-max", "100000")
	fc := client.New(follower.url)
	waitReady(t, follower, http.StatusOK)

	if v, ok := metricValue(t, follower, "gpm_follower_connected"); !ok || v != 1 {
		t.Fatalf("gpm_follower_connected = %v (present %v), want 1", v, ok)
	}
	if _, ok := metricValue(t, follower, "gpm_follower_replication_lag"); !ok {
		t.Fatal("gpm_follower_replication_lag not exported")
	}
	before, ok := metricValue(t, follower, "gpm_follower_applied_seq")
	if !ok {
		t.Fatal("gpm_follower_applied_seq not exported")
	}

	head := storm(t, lc, 5, 3, seed+1)
	waitSeq(t, fc, "metrics-follower", head)

	deadline := time.Now().Add(10 * time.Second)
	for {
		after, _ := metricValue(t, follower, "gpm_follower_applied_seq")
		if after > before && after == float64(head) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gpm_follower_applied_seq stuck: before %v, now %v, head %d", before, after, head)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The leader, for contrast, exports no follower gauges.
	if _, ok := metricValue(t, leader, "gpm_follower_connected"); ok {
		t.Fatal("leader exports follower gauges")
	}
}
