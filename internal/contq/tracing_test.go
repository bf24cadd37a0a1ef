package contq

import (
	"context"
	"math"
	"testing"
	"time"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/obs"
	"gpm/internal/obs/trace"
)

// alwaysTracer builds a tracer that samples every commit.
func alwaysTracer() *trace.Tracer {
	return trace.New(trace.Config{Mode: trace.ModeAlways})
}

// spanNames collects the set of span names in a trace snapshot.
func spanNames(snap trace.TraceSnapshot) map[string]bool {
	names := make(map[string]bool, len(snap.Spans))
	for _, s := range snap.Spans {
		names[s.Name] = true
	}
	return names
}

// TestCommitTracePropagation threads one trace from a caller's context
// through the whole commit pipeline and asserts every observable output
// carries it: the registry's trace ring (commit + stage spans, indexed by
// seq), the CommitTiming observer, the journal record, the commit stream,
// and the per-pattern match event. It also holds the three views of each
// timed stage to agreement: the sampled commit's stage spans last exactly
// as long as its CommitTiming fields, and over the run each stage
// histogram sums exactly what the observer saw.
func TestCommitTracePropagation(t *testing.T) {
	seed := int64(17)
	g := generator.Synthetic(30, 90, generator.DefaultSchema(3), seed)
	tr := alwaysTracer()
	var timings []CommitTiming
	r := New(g,
		WithTracer(tr),
		WithJournal(journal.New()),
		WithMetrics(obs.NewRegistry()),
		WithCommitObserver(func(ct CommitTiming) { timings = append(timings, ct) }))
	defer r.Close()
	if err := r.Register("p", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	sub, err := r.Subscribe("p")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	csub, err := r.SubscribeCommitsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer csub.Cancel()

	root := tr.StartRoot("test.client")
	ctx := trace.NewContext(context.Background(), root.Context())
	ups := generator.Updates(leaderGraph(r), 3, 0, seed+1)
	seq, err := r.ApplyContext(ctx, ups)
	root.End()
	if err != nil {
		t.Fatalf("ApplyContext: %v", err)
	}
	want := root.Context().TraceID.String()

	snap, ok := tr.BySeq(seq)
	if !ok {
		t.Fatalf("no trace retained for seq %d", seq)
	}
	if snap.TraceID != want {
		t.Fatalf("commit trace %s, want the caller's %s", snap.TraceID, want)
	}
	names := spanNames(snap)
	for _, n := range []string{"test.client", "queue.wait", "commit",
		"stage.validate", "stage.repair", "stage.journal", "stage.publish"} {
		if !names[n] {
			t.Fatalf("trace missing span %q (have %v)", n, names)
		}
	}

	observed := timings[len(timings)-1]
	if sc, ok := trace.Parse(observed.Trace); !ok || sc.TraceID.String() != want {
		t.Fatalf("CommitTiming.Trace = %q, want traceparent of %s", observed.Trace, want)
	}
	stageDur := map[string]time.Duration{
		"stage.network": observed.Network,
		"stage.repair":  observed.Repair,
		"stage.journal": observed.Journal,
		"stage.publish": observed.Publish,
	}
	for _, sp := range snap.Spans {
		if d, ok := stageDur[sp.Name]; ok {
			if want := float64(d) / float64(time.Millisecond); sp.DurationMS != want {
				t.Errorf("span %s lasts %v ms, CommitTiming says %v ms", sp.Name, sp.DurationMS, want)
			}
			delete(stageDur, sp.Name)
		}
	}
	if len(stageDur) != 0 {
		t.Fatalf("trace missing stage spans %v", stageDur)
	}
	recs, err := r.Replay(seq - 1)
	if err != nil {
		t.Fatal(err)
	}
	if sc, ok := trace.Parse(recs[len(recs)-1].Trace); !ok || sc.TraceID.String() != want {
		t.Fatalf("journal record trace = %q, want trace %s", recs[len(recs)-1].Trace, want)
	}
	cev := <-csub.C
	if sc, ok := trace.Parse(cev.Trace); !ok || sc.TraceID.String() != want {
		t.Fatalf("commit event trace = %q, want trace %s", cev.Trace, want)
	}
	mev := <-sub.C
	if sc, ok := trace.Parse(mev.Trace); !ok || sc.TraceID.String() != want {
		t.Fatalf("match event trace = %q, want trace %s", mev.Trace, want)
	}

	// A second, untraced commit, so the histogram sums cover more than one
	// observation.
	if _, err := r.Apply(generator.Updates(leaderGraph(r), 3, 0, seed+2)); err != nil {
		t.Fatal(err)
	}
	ts := r.Stats().Timings
	for _, st := range []struct {
		name  string
		hist  obs.HistSnapshot
		field func(CommitTiming) time.Duration
	}{
		{"network", ts.NetworkMS, func(ct CommitTiming) time.Duration { return ct.Network }},
		{"repair", ts.RepairMS, func(ct CommitTiming) time.Duration { return ct.Repair }},
		{"journal", ts.JournalMS, func(ct CommitTiming) time.Duration { return ct.Journal }},
		{"publish", ts.PublishMS, func(ct CommitTiming) time.Duration { return ct.Publish }},
	} {
		var sum float64
		for _, ct := range timings {
			sum += float64(st.field(ct)) / float64(time.Millisecond)
		}
		if math.Abs(st.hist.Sum-sum) > 1e-9*sum {
			t.Errorf("%s histogram sums %v ms, the observer's %d commits %v ms",
				st.name, st.hist.Sum, len(timings), sum)
		}
	}
}

// TestUntracedApplyStaysUntraced is the default-off contract: a registry
// without a tracer (or a plain Apply) must publish events with no trace
// and retain nothing — the path gpbench measures with sampling off.
func TestUntracedApplyStaysUntraced(t *testing.T) {
	seed := int64(19)
	g := generator.Synthetic(20, 60, generator.DefaultSchema(3), seed)
	r := New(g, WithJournal(journal.New()), WithMetrics(obs.NewRegistry()))
	defer r.Close()
	csub, err := r.SubscribeCommitsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer csub.Cancel()
	seq, err := r.Apply(generator.Updates(leaderGraph(r), 2, 0, seed+1))
	if err != nil {
		t.Fatal(err)
	}
	if ev := <-csub.C; ev.Trace != "" {
		t.Fatalf("untraced commit published trace %q", ev.Trace)
	}
	if _, ok := r.Tracer().BySeq(seq); ok {
		t.Fatal("default tracer retained a trace")
	}
}

// TestReplicatedTraceContinuity is the cross-node half of the tentpole:
// a follower that applies the leader's commit with its traceparent must
// record its replica-side spans under the SAME trace ID, so one lookup
// finds both halves of the commit.
func TestReplicatedTraceContinuity(t *testing.T) {
	seed := int64(23)
	g := generator.Synthetic(25, 80, generator.DefaultSchema(3), seed)
	ltr, ftr := alwaysTracer(), alwaysTracer()
	leader := New(g, WithTracer(ltr), WithJournal(journal.New()), WithMetrics(obs.NewRegistry()))
	defer leader.Close()

	snapG, snapSeq, pats := leader.Export()
	follower, err := NewAt(snapG.Clone(), snapSeq, pats,
		WithTracer(ftr), WithJournal(journal.New()), WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	csub, err := leader.SubscribeCommitsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer csub.Cancel()

	root := ltr.StartRoot("test.client")
	ctx := trace.NewContext(context.Background(), root.Context())
	seq, err := leader.ApplyContext(ctx, generator.Updates(leaderGraph(leader), 3, 0, seed+1))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	want := root.Context().TraceID.String()

	ev := <-csub.C
	if err := follower.ApplyReplicated(ev.Seq, ev.Updates, ev.Trace); err != nil {
		t.Fatalf("ApplyReplicated: %v", err)
	}
	snap, ok := ftr.BySeq(seq)
	if !ok {
		t.Fatalf("follower retained no trace for seq %d", seq)
	}
	if snap.TraceID != want {
		t.Fatalf("follower trace %s, want the leader's %s", snap.TraceID, want)
	}
	if names := spanNames(snap); !names["replica.apply"] || !names["stage.publish"] {
		t.Fatalf("follower trace missing replica spans (have %v)", names)
	}
	// An untraced replicated commit must not fabricate a trace.
	if err := follower.ApplyReplicated(seq+1, nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := ftr.BySeq(seq + 1); ok {
		t.Fatal("untraced replicated commit recorded a trace")
	}
}

// TestCoalescedBatchesBecomeSpanLinks: when several traced Apply calls
// coalesce into one commit, the commit span parents on one caller and
// links the rest, so no caller's trace dangles.
func TestCoalescedBatchesBecomeSpanLinks(t *testing.T) {
	seed := int64(29)
	g := generator.Synthetic(20, 60, generator.DefaultSchema(3), seed)
	tr := alwaysTracer()
	r := New(g, WithTracer(tr), WithJournal(journal.New()), WithMetrics(obs.NewRegistry()))
	defer r.Close()

	// Coalescing needs concurrent Apply calls; drive a few and then check
	// that every caller's trace ID appears either as a commit trace or as
	// a link on some commit span.
	// Generate every batch up front: the generator reads the live graph,
	// which must not happen concurrently with commits.
	const callers = 4
	ids := make([]string, callers)
	batches := make([][]graph.Update, callers)
	for i := range callers {
		batches[i] = generator.Updates(leaderGraph(r), 1, 0, seed+int64(i)+1)
	}
	done := make(chan uint64, callers)
	for i := range callers {
		root := tr.StartRoot("test.caller")
		ids[i] = root.Context().TraceID.String()
		ctx := trace.NewContext(context.Background(), root.Context())
		go func(ctx context.Context, ups []graph.Update, root *trace.Span) {
			seq, err := r.ApplyContext(ctx, ups)
			root.End()
			if err != nil {
				t.Errorf("ApplyContext: %v", err)
			}
			done <- seq
		}(ctx, batches[i], root)
	}
	for range callers {
		<-done
	}

	// Collect every trace ID reachable from the retained commits: own IDs
	// plus linked span contexts.
	covered := make(map[string]bool)
	for _, snap := range tr.Traces(0) {
		covered[snap.TraceID] = true
		for _, sp := range snap.Spans {
			for _, l := range sp.Links {
				if sc, ok := trace.Parse(l); ok {
					covered[sc.TraceID.String()] = true
				}
			}
		}
	}
	for i, id := range ids {
		if !covered[id] {
			t.Fatalf("caller %d trace %s neither owns a commit nor is linked", i, id)
		}
	}
}
