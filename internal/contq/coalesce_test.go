package contq

import (
	"context"
	"sync"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/rel"
)

func queued(ups ...graph.Update) *applyReq {
	return &applyReq{ups: ups, done: make(chan struct{})}
}

func mustDone(t *testing.T, req *applyReq) {
	t.Helper()
	select {
	case <-req.done:
	default:
		t.Fatal("request not completed by the drain")
	}
}

// TestCoalescedInsertDeleteCancel drives the drain directly with an
// insert and a delete of the same edge queued by two callers: the pair
// must annihilate before any engine runs, the graph must be untouched,
// and the commit must still happen — seq advances by one and the
// subscriber sees exactly one (empty) event, so delta/seq semantics
// survive an empty-after-cancellation batch.
func TestCoalescedInsertDeleteCancel(t *testing.T) {
	seed := int64(1)
	g := generator.Synthetic(40, 160, generator.DefaultSchema(3), seed)
	reg := New(g)
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	sub, err := reg.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	// Pick a currently-absent edge.
	var u, v graph.NodeID = -1, -1
	for a := 0; a < g.NumNodes() && u < 0; a++ {
		for b := 0; b < g.NumNodes(); b++ {
			if a != b && !g.HasEdge(a, b) {
				u, v = a, b
				break
			}
		}
	}
	edgesBefore := g.NumEdges()

	req1 := queued(graph.Insert(u, v))
	req2 := queued(graph.Delete(u, v))
	reg.commit([]*applyReq{req1, req2})
	mustDone(t, req1)
	mustDone(t, req2)
	if req1.err != nil || req2.err != nil {
		t.Fatalf("errors: %v, %v", req1.err, req2.err)
	}
	if req1.seq != 1 || req2.seq != 1 {
		t.Fatalf("both callers must share commit 1, got %d and %d", req1.seq, req2.seq)
	}
	if g.HasEdge(u, v) || g.NumEdges() != edgesBefore {
		t.Fatal("cancelled pair reached the canonical graph")
	}
	ev := <-sub.C
	if ev.Seq != 1 || !ev.Delta.Empty() {
		t.Fatalf("want one empty event with seq 1, got seq %d delta %v", ev.Seq, ev.Delta)
	}
	st := reg.Stats()
	if st.Commits != 1 || st.Applies != 2 || st.CoalescedApplies != 1 ||
		st.UpdatesSubmitted != 2 || st.UpdatesApplied != 0 || st.UpdatesCancelled != 2 {
		t.Fatalf("stats after cancellation drain: %+v", st)
	}
	reg.Close()
}

// TestCoalescedDrainSeqContinuity queues N Apply batches into one drain:
// they must commit as ONE sequence number whose single per-pattern event
// carries the net delta, and a subscriber's snapshot ⊕ deltas must still
// equal Result() afterwards.
func TestCoalescedDrainSeqContinuity(t *testing.T) {
	seed := int64(2)
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
	ups := generator.Updates(g, 25, 25, seed+9)
	reg := New(g)
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	sub, err := reg.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}

	const n = 5
	reqs := make([]*applyReq, n)
	per := len(ups) / n
	for i := range reqs {
		reqs[i] = queued(ups[i*per : (i+1)*per]...)
	}
	reg.commit(reqs)
	for _, req := range reqs {
		mustDone(t, req)
		if req.err != nil {
			t.Fatal(req.err)
		}
		if req.seq != 1 {
			t.Fatalf("all %d callers must share commit 1, got %d", n, req.seq)
		}
	}
	if got := reg.Seq(); got != 1 {
		t.Fatalf("drain of %d applies advanced seq to %d, want 1", n, got)
	}

	// One more (uncoalesced) commit: the subscriber must see seq 1 then 2
	// with no gap, and accumulate to Result().
	if _, err := reg.Apply(ups[n*per:]); err != nil {
		t.Fatal(err)
	}
	acc := sub.Snapshot.Clone()
	for want := uint64(1); want <= 2; want++ {
		ev := <-sub.C
		if ev.Seq != want {
			t.Fatalf("subscriber saw seq %d, want %d", ev.Seq, want)
		}
		ev.Delta.Apply(acc)
	}
	res, _ := reg.Result("q")
	if !acc.Equal(res) {
		t.Fatal("snapshot ⊕ coalesced deltas diverges from Result()")
	}
	st := reg.Stats()
	if st.Commits != 2 || st.Applies != n+1 || st.CoalescedApplies != n-1 {
		t.Fatalf("stats: %+v", st)
	}
	reg.Close()
}

// TestCoalescedDrainValidationIsolation: an invalid batch inside a drain
// fails alone; the other callers' updates commit.
func TestCoalescedDrainValidationIsolation(t *testing.T) {
	seed := int64(3)
	g := generator.Synthetic(30, 90, generator.DefaultSchema(3), seed)
	reg := New(g)
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	var u, v graph.NodeID = -1, -1
	for a := 0; a < g.NumNodes() && u < 0; a++ {
		for b := 0; b < g.NumNodes(); b++ {
			if a != b && !g.HasEdge(a, b) {
				u, v = a, b
				break
			}
		}
	}
	good := queued(graph.Insert(u, v))
	bad := queued(graph.Insert(0, 99999))
	badOp := queued(graph.Update{Op: 7, From: 0, To: 1})
	reg.commit([]*applyReq{good, bad, badOp})
	mustDone(t, good)
	mustDone(t, bad)
	mustDone(t, badOp)
	if good.err != nil || good.seq != 1 {
		t.Fatalf("valid caller: seq=%d err=%v", good.seq, good.err)
	}
	if bad.err == nil || badOp.err == nil {
		t.Fatal("invalid batches must fail individually")
	}
	if !g.HasEdge(u, v) {
		t.Fatal("valid caller's update did not commit")
	}
	reg.Close()
}

// TestConcurrentAppliesCoalesce hammers Apply from many goroutines and
// checks the writer really does merge batches: every call is admitted,
// commits never exceed applies, seq equals commits, and the canonical
// graph equals a serial replay of the same net updates.
func TestConcurrentAppliesCoalesce(t *testing.T) {
	seed := int64(4)
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
	mirror := g.Clone()
	ups := generator.Updates(g, 60, 0, seed+11) // insertions only: order-independent net effect
	reg := New(g)
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < len(ups); i++ {
		wg.Add(1)
		go func(up graph.Update) {
			defer wg.Done()
			if _, err := reg.Apply([]graph.Update{up}); err != nil {
				t.Error(err)
			}
		}(ups[i])
	}
	wg.Wait()

	st := reg.Stats()
	if st.Applies != uint64(len(ups)) {
		t.Fatalf("admitted %d of %d applies", st.Applies, len(ups))
	}
	if st.Commits > st.Applies || st.Seq != st.Commits {
		t.Fatalf("inconsistent writer stats: %+v", st)
	}
	t.Logf("%d applies coalesced into %d commits", st.Applies, st.Commits)

	if _, err := mirror.ApplyAll(ups); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != mirror.NumEdges() {
		t.Fatalf("canonical graph diverged: %d edges vs %d", g.NumEdges(), mirror.NumEdges())
	}
	reg.Close()
}

// brokenMatcher is a pattern whose join's repair panicked: the network
// contained the panic, and Delta reports the pattern broken.
type brokenMatcher struct{}

func (brokenMatcher) Delta() (rel.Delta, bool) { return rel.Delta{}, false }
func (brokenMatcher) Result() rel.Relation     { return rel.NewRelation(1) }
func (brokenMatcher) Release()                 {}

// TestPanickingEngineIsEvicted: a panic inside one engine's repair is
// contained to that pattern — the commit itself proceeds (the other
// engines already absorbed the batch, so the canonical graph must too),
// the broken pattern is evicted with its subscriber streams closed, and
// the surviving pattern's result stays exactly in sync.
func TestPanickingEngineIsEvicted(t *testing.T) {
	seed := int64(6)
	g := generator.Synthetic(30, 90, generator.DefaultSchema(3), seed)
	solo := g.Clone()
	p := testPattern(g, KindSim, seed)
	reg := New(g)
	if err := reg.Register("good", p, KindSim); err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	reg.pats["bad"] = &registration{id: "bad", kind: KindSim, m: brokenMatcher{}}
	reg.mu.Unlock()
	badSub, err := reg.Subscribe("bad")
	if err != nil {
		t.Fatal(err)
	}
	commits, err := reg.SubscribeCommitsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer commits.Cancel()

	ups := generator.Updates(g, 4, 0, seed+7)
	seq, err := reg.Apply(ups[:2])
	if err != nil || seq != 1 {
		t.Fatalf("commit with a panicking engine: seq=%d err=%v", seq, err)
	}
	// The commit stream carries the commit, then the set the eviction left
	// at its seq.
	if ev := <-commits.C; ev.Seq != 1 || ev.Patterns != nil {
		t.Fatalf("first commit-stream event %+v, want commit 1", ev)
	}
	if ev := <-commits.C; ev.Seq != 1 || len(ev.Patterns) != 1 || ev.Patterns[0].ID != "good" {
		t.Fatalf("second commit-stream event %+v, want the set without bad at seq 1", ev)
	}
	if _, ok := reg.Result("bad"); ok {
		t.Fatal("panicked pattern must be evicted")
	}
	if _, ok := <-badSub.C; ok {
		t.Fatal("evicted pattern's subscriber stream must close")
	}
	if st := reg.Stats(); st.PatternsEvicted != 1 {
		t.Fatalf("PatternsEvicted = %d, want 1", st.PatternsEvicted)
	}

	// The survivor is still in lockstep with the canonical graph: its
	// result equals the from-scratch match over the same stream, before and
	// after another commit.
	check := func(applied []graph.Update) {
		t.Helper()
		g2 := solo.Clone()
		if _, err := g2.ApplyAll(applied); err != nil {
			t.Fatal(err)
		}
		got, _ := reg.Result("good")
		if !got.Equal(oracleMatch(KindSim, p, g2)) {
			t.Fatal("surviving pattern diverged after an engine panic")
		}
	}
	check(ups[:2])
	if seq, err := reg.Apply(ups[2:4]); err != nil || seq != 2 {
		t.Fatalf("registry wedged after eviction: seq=%d err=%v", seq, err)
	}
	check(ups[:4])
	reg.Close()
}

// TestPanickingPublishDoesNotWedgeWriter: the drain's outer panic guard
// still protects the writer from panics outside the network —
// queued callers get errors, the flag resets, and the registry stays
// writable. (Engine-repair panics no longer reach it; see above.)
func TestPanickingPublishDoesNotWedgeWriter(t *testing.T) {
	seed := int64(6)
	g := generator.Synthetic(30, 90, generator.DefaultSchema(3), seed)
	reg := New(g)
	ups := generator.Updates(g, 4, 0, seed+7)

	// A nil subscription in the set makes publish panic — a stand-in for
	// any post-repair bug.
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	reg.pats["q"].subs.attach(nil)

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Apply must propagate a non-engine panic to the synchronous drainer")
			}
		}()
		reg.Apply(ups[:1]) //nolint:errcheck // panics
	}()

	// Background-drainer path: queued requests must complete, not hang.
	// Their commit finished (seq assigned, graph mutated) before the
	// publish panic, so under Apply's contract they report success with a
	// nonzero seq — seq 0 with an error is reserved for never-committed.
	r1, r2 := queued(ups[1]), queued(ups[2])
	reg.qmu.Lock()
	reg.queue = append(reg.queue, r1, r2)
	reg.draining = true
	reg.qmu.Unlock()
	reg.drainStep(false) // must recover, not crash the process
	mustDone(t, r1)
	mustDone(t, r2)
	if r1.seq == 0 || r2.seq == 0 || r1.err != nil || r2.err != nil {
		t.Fatalf("committed callers must get their seq despite the publish panic: %d/%v %d/%v",
			r1.seq, r1.err, r2.seq, r2.err)
	}

	// The writer must be fully usable once the faulty subscriber is gone.
	reg.pats["q"].subs.detach(nil)
	if _, err := reg.Apply(ups[3:4]); err != nil {
		t.Fatalf("registry wedged after panic: %v", err)
	}
	reg.Close()
}
