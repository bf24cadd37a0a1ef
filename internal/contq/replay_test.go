package contq

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/rel"
)

// applyInBatches commits ups in fixed-size batches, returning the number
// of commits (Apply is serial here, so commits == batches).
func applyInBatches(t *testing.T, reg *Registry, ups []graph.Update, size int) int {
	t.Helper()
	n := 0
	for i := 0; i < len(ups); i += size {
		end := i + size
		if end > len(ups) {
			end = len(ups)
		}
		if _, err := reg.Apply(ups[i:end]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// drainTo reads events until seq reaches head, asserting consecutive
// sequence numbers, and applies every delta to acc.
func drainTo(t *testing.T, sub *Subscription, acc rel.Relation, from, head uint64) {
	t.Helper()
	last := from
	for last < head {
		ev, ok := <-sub.C
		if !ok {
			t.Fatalf("stream closed at seq %d, want %d", last, head)
		}
		if ev.Seq != last+1 {
			t.Fatalf("seq %d after %d: gap or duplicate", ev.Seq, last)
		}
		last = ev.Seq
		ev.Delta.Apply(acc)
	}
}

// TestResumeFromSeqEquivalence is the replay-equivalence acceptance
// property: for every engine kind, the relation captured at seq s plus
// the deltas backfilled by Subscribe(FromSeq(s)) — and the live deltas
// spliced after them — equals Result() at the head.
func TestResumeFromSeqEquivalence(t *testing.T) {
	for _, kind := range []Kind{KindSim, KindBSim, KindIso} {
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g := generator.Synthetic(80, 320, generator.DefaultSchema(3), seed)
				ups := generator.Updates(g, 40, 40, seed+20)
				reg := New(g, WithJournal(journal.New()))
				p := testPattern(g, kind, seed)
				if err := reg.Register("q", p, kind); err != nil {
					t.Fatal(err)
				}

				// Commit a prefix, capture the relation at s.
				pre := ups[:32]
				applyInBatches(t, reg, pre, 4)
				s := reg.Seq()
				snap, _ := reg.Result("q")
				acc := snap.Clone()

				// Miss a middle stretch of commits.
				mid := ups[32:64]
				applyInBatches(t, reg, mid, 4)
				head := reg.Seq()

				sub, err := reg.Subscribe("q", FromSeq(s))
				if err != nil {
					t.Fatalf("%s seed %d: resume: %v", kind, seed, err)
				}
				if sub.Snapshot != nil || sub.Seq != s {
					t.Fatalf("resumed subscription has snapshot %v seq %d", sub.Snapshot, sub.Seq)
				}
				// Backfilled deltas bring acc to head...
				drainTo(t, sub, acc, s, head)
				want, _ := reg.Result("q")
				if !acc.Equal(want) {
					t.Fatalf("%s seed %d: backfilled deltas diverge from Result()", kind, seed)
				}

				// ...and the live feed splices in seamlessly after them.
				applyInBatches(t, reg, ups[64:], 4)
				newHead := reg.Seq()
				drainTo(t, sub, acc, head, newHead)
				want, _ = reg.Result("q")
				if !acc.Equal(want) {
					t.Fatalf("%s seed %d: spliced live deltas diverge from Result()", kind, seed)
				}
				sub.Cancel()
				reg.Close()
			}
		})
	}
}

// TestResumeFromHeadSkipsBackfill covers FromSeq(head): a live
// subscription without snapshot or backfill.
func TestResumeFromHeadSkipsBackfill(t *testing.T) {
	g := generator.Synthetic(40, 160, generator.DefaultSchema(3), 1)
	ups := generator.Updates(g, 20, 20, 9)
	reg := New(g, WithJournal(journal.New()))
	if err := reg.Register("q", testPattern(g, KindSim, 1), KindSim); err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, reg, ups[:10], 5)
	head := reg.Seq()
	res, _ := reg.Result("q")
	acc := res.Clone()
	sub, err := reg.Subscribe("q", FromSeq(head))
	if err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, reg, ups[10:], 5)
	drainTo(t, sub, acc, head, reg.Seq())
	want, _ := reg.Result("q")
	if !acc.Equal(want) {
		t.Fatal("FromSeq(head) subscription diverges")
	}
	sub.Cancel()
	reg.Close()
}

// TestResumeErrors maps the failure modes: no journal, future seq,
// compacted history, and a seq predating the pattern's registration.
func TestResumeErrors(t *testing.T) {
	g := generator.Synthetic(40, 160, generator.DefaultSchema(3), 2)
	ups := generator.Updates(g, 30, 30, 3)

	bare := New(g.Clone())
	if err := bare.Register("q", testPattern(g, KindSim, 2), KindSim); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Apply(ups[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Subscribe("q", FromSeq(0)); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("no journal: %v", err)
	}
	if _, err := bare.Subscribe("q", FromSeq(99)); !errors.Is(err, ErrSeqFuture) {
		t.Fatalf("future seq: %v", err)
	}
	if _, err := bare.Replay(0); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("Replay without journal: %v", err)
	}
	bare.Close()

	// A 2-commit ring: resumes further back are compacted.
	reg := New(g, WithJournal(journal.New(journal.WithRing(2))))
	if err := reg.Register("q", testPattern(g, KindSim, 2), KindSim); err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, reg, ups, 5)
	if _, err := reg.Subscribe("q", FromSeq(1)); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("compacted resume: %v", err)
	}
	if _, err := reg.Replay(1); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("compacted Replay: %v", err)
	}

	// A pattern registered at seq k cannot resume from before k.
	if err := reg.Register("late", testPattern(g, KindSim, 3), KindSim); err != nil {
		t.Fatal(err)
	}
	late := reg.Seq()
	if late == 0 {
		t.Fatal("want a nonzero registration seq")
	}
	if _, err := reg.Subscribe("late", FromSeq(late-1)); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("pre-registration resume: %v", err)
	}
	reg.Close()
}

// TestReplayRawCommits checks Registry.Replay returns the journaled net
// batches, and that re-applying them to the starting graph reproduces
// the canonical graph (the ΔG-tailing contract of GET /commits).
func TestReplayRawCommits(t *testing.T) {
	g := generator.Synthetic(50, 200, generator.DefaultSchema(3), 4)
	start := g.Clone()
	ups := generator.Updates(g, 25, 25, 6)
	reg := New(g, WithJournal(journal.New()))
	n := applyInBatches(t, reg, ups, 10)
	recs, err := reg.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("%d commits, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("commit %d has seq %d", i, rec.Seq)
		}
		if _, err := start.ApplyAll(rec.Updates); err != nil {
			t.Fatal(err)
		}
	}
	if start.NumEdges() != g.NumEdges() {
		t.Fatalf("replayed graph has %d edges, canonical %d", start.NumEdges(), g.NumEdges())
	}
	g.Edges(func(u, v graph.NodeID) bool {
		if !start.HasEdge(u, v) {
			t.Fatalf("replayed graph missing edge (%d,%d)", u, v)
		}
		return true
	})
	reg.Close()
}

// TestRecoverFromJournal is the crash-recovery acceptance path: a
// journaled registry with all three engine kinds is closed; Recover on a
// reopened journal reproduces graph, seq and every pattern's result, and
// both new commits and FromSeq resumes spanning the restart work.
func TestRecoverFromJournal(t *testing.T) {
	dir := t.TempDir()
	seed := int64(5)
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
	ups := generator.Updates(g, 40, 40, seed+30)
	pats := map[string]Kind{"s": KindSim, "b": KindBSim, "i": KindIso}
	built := map[string]*rel.Relation{}

	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := New(g, WithJournal(j))
	for id, kind := range pats {
		if err := reg.Register(id, testPattern(g, kind, seed), kind); err != nil {
			t.Fatal(err)
		}
	}
	applyInBatches(t, reg, ups[:32], 4)
	preSeq := reg.Seq()
	resumeAt := uint64(4) // a subscriber's last-seen seq, resumed below after the restart
	preNodes, preEdges, _, _ := reg.GraphInfo()
	for id := range pats {
		res, _ := reg.Result(id)
		c := res.Clone()
		built[id] = &c
	}
	reg.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reg2, err := Recover(j2)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Seq(); got != preSeq {
		t.Fatalf("recovered seq %d, want %d", got, preSeq)
	}
	nodes, edges, _, _ := reg2.GraphInfo()
	if nodes != preNodes || edges != preEdges {
		t.Fatalf("recovered graph %d/%d, want %d/%d", nodes, edges, preNodes, preEdges)
	}
	infos := reg2.Patterns()
	if len(infos) != len(pats) {
		t.Fatalf("recovered %d patterns, want %d", len(infos), len(pats))
	}
	for id := range pats {
		got, ok := reg2.Result(id)
		if !ok {
			t.Fatalf("pattern %q missing after recovery", id)
		}
		if !got.Equal(*built[id]) {
			t.Fatalf("pattern %q result diverges after recovery", id)
		}
	}

	// A subscriber that last saw seq resumeAt before the restart resumes
	// against the recovered registry and converges on the live result.
	{
		// Rebuild its relation at resumeAt from the journaled history.
		recs, err := reg2.Replay(0)
		if err != nil {
			t.Fatal(err)
		}
		g0 := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
		p := testPattern(g0, KindSim, seed)
		for _, rec := range recs[:resumeAt] {
			if _, err := g0.ApplyAll(rec.Updates); err != nil {
				t.Fatal(err)
			}
		}
		acc := oracleMatch(KindSim, p, g0)
		sub, err := reg2.Subscribe("s", FromSeq(resumeAt))
		if err != nil {
			t.Fatal(err)
		}
		drainTo(t, sub, acc, resumeAt, reg2.Seq())
		want, _ := reg2.Result("s")
		if !acc.Equal(want) {
			t.Fatal("cross-restart resume diverges from recovered Result()")
		}
		sub.Cancel()
	}

	// The recovered registry accepts new commits from the recovered head.
	if _, err := reg2.Apply(ups[32:36]); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Seq(); got != preSeq+1 {
		t.Fatalf("post-recovery seq %d, want %d", got, preSeq+1)
	}
	reg2.Close()
}

// TestRecoverAfterSnapshotAndUnregister exercises recovery across a
// checkpoint boundary: patterns registered before the snapshot, one
// unregistered after it, commits on both sides.
func TestRecoverAfterSnapshotAndUnregister(t *testing.T) {
	dir := t.TempDir()
	seed := int64(7)
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
	ups := generator.Updates(g, 40, 40, seed+40)

	j, err := journal.Open(dir, journal.WithSnapshotEvery(4), journal.WithRing(4))
	if err != nil {
		t.Fatal(err)
	}
	reg := New(g, WithJournal(j))
	if err := reg.Register("keep", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("drop", testPattern(g, KindBSim, seed), KindBSim); err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, reg, ups[:24], 4) // crosses the snapshot-every-4 boundary
	if !reg.Unregister("drop") {
		t.Fatal("unregister failed")
	}
	applyInBatches(t, reg, ups[24:], 4)
	preSeq := reg.Seq()
	want, _ := reg.Result("keep")
	wantClone := want.Clone()
	st := reg.Stats()
	if st.Journal == nil || st.Journal.SnapshotSeq == 0 {
		t.Fatalf("expected an automatic snapshot, stats %+v", st.Journal)
	}
	reg.Close()
	j.Close()

	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reg2, err := Recover(j2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if reg2.Seq() != preSeq {
		t.Fatalf("recovered seq %d, want %d", reg2.Seq(), preSeq)
	}
	if _, ok := reg2.Result("drop"); ok {
		t.Fatal("unregistered pattern resurrected by recovery")
	}
	got, ok := reg2.Result("keep")
	if !ok || !got.Equal(wantClone) {
		t.Fatal("surviving pattern's result diverges after snapshot recovery")
	}
	// The snapshot preserves the original registration seq, so resumes
	// into retained pre-snapshot history are not rejected after restart.
	reg2.mu.RLock()
	regSeq := reg2.pats["keep"].regSeq
	reg2.mu.RUnlock()
	if regSeq != 0 {
		t.Fatalf("recovered regSeq %d, want the original 0", regSeq)
	}
}

// TestRecoverTornJournalTail is the contq half of the crash-recovery
// satellite: recovery over a journal whose final record was torn stops at
// the last valid seq and accepts new commits from there.
func TestRecoverTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	seed := int64(9)
	g := generator.Synthetic(50, 200, generator.DefaultSchema(3), seed)
	ups := generator.Updates(g, 30, 30, seed+50)

	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := New(g, WithJournal(j))
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, reg, ups, 5)
	head := reg.Seq()
	reg.Close()
	j.Close()

	// Tear the final record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.gpwal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	var last string
	var lastSize int64
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil && fi.Size() > 0 {
			last, lastSize = s, fi.Size()
		}
	}
	if err := os.Truncate(last, lastSize-2); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reg2, err := Recover(j2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if got := reg2.Seq(); got != head-1 {
		t.Fatalf("recovered seq %d, want %d (head %d minus the torn commit)", got, head-1, head)
	}
	// The recovered state equals an independent replay of the surviving
	// prefix, and the registry commits new batches from there.
	g0 := generator.Synthetic(50, 200, generator.DefaultSchema(3), seed)
	p := testPattern(g0, KindSim, seed)
	recs, err := reg2.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := g0.ApplyAll(rec.Updates); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := reg2.Result("q")
	if !got.Equal(oracleMatch(KindSim, p, g0)) {
		t.Fatal("recovered result diverges from independent replay")
	}
	if _, err := reg2.Apply(ups[:3]); err != nil {
		t.Fatal(err)
	}
	if reg2.Seq() != head {
		t.Fatalf("post-recovery commit got seq %d, want %d", reg2.Seq(), head)
	}
}
