package contq

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/journal"
)

// TestReplicaLockstep is the replication property the follower relies on:
// a replica built from Export and fed every leader commit through
// ApplyReplicated ends at the same head with identical results for every
// pattern kind.
func TestReplicaLockstep(t *testing.T) {
	seed := int64(41)
	g := generator.Synthetic(40, 120, generator.DefaultSchema(3), seed)
	leader := New(g, WithJournal(journal.New()))
	defer leader.Close()
	for _, k := range []Kind{KindSim, KindBSim, KindIso} {
		if err := leader.Register("p-"+string(k), testPattern(g, k, seed), k); err != nil {
			t.Fatal(err)
		}
	}
	// Some pre-bootstrap history so the snapshot is mid-stream.
	pre := generator.Updates(g, 6, 0, seed+1)
	for _, u := range pre {
		if _, err := leader.Apply([]graph.Update{u}); err != nil {
			t.Fatal(err)
		}
	}

	// Bootstrap the follower from the leader's snapshot.
	snapG, snapSeq, pats := leader.Export()
	follower, err := NewAt(snapG.Clone(), snapSeq, pats)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if got := follower.Seq(); got != snapSeq {
		t.Fatalf("follower head = %d, want snapshot seq %d", got, snapSeq)
	}

	// Tail the leader's commit stream and replay it on the follower.
	sub, err := leader.SubscribeCommitsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	post := generator.Updates(leaderGraph(leader), 8, 0, seed+2)
	for _, u := range post {
		if _, err := leader.Apply([]graph.Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	head := leader.Seq()
	for follower.Seq() < head {
		ev := <-sub.C
		if err := follower.ApplyReplicated(ev.Seq, ev.Updates, ""); err != nil {
			t.Fatalf("ApplyReplicated(%d): %v", ev.Seq, err)
		}
	}

	if follower.Seq() != head {
		t.Fatalf("follower head = %d, leader head = %d", follower.Seq(), head)
	}
	for _, k := range []Kind{KindSim, KindBSim, KindIso} {
		id := "p-" + string(k)
		lr, ok := leader.Result(id)
		if !ok {
			t.Fatalf("leader lost pattern %s", id)
		}
		fr, ok := follower.Result(id)
		if !ok {
			t.Fatalf("follower missing pattern %s", id)
		}
		if !lr.Equal(fr) {
			t.Fatalf("kind %s: follower result diverged from leader at seq %d", k, head)
		}
	}
}

// leaderGraph peeks at the canonical graph for update generation only.
func leaderGraph(r *Registry) *graph.Graph {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.g
}

// TestApplyReplicatedSeqGap: a commit that does not directly follow the
// head is refused with ErrReplicaGap and changes nothing.
func TestApplyReplicatedSeqGap(t *testing.T) {
	seed := int64(42)
	g := generator.Synthetic(20, 50, generator.DefaultSchema(2), seed)
	ups := generator.Updates(g, 3, 0, seed)
	reg := New(g)
	defer reg.Close()
	if err := reg.ApplyReplicated(2, ups[:1], ""); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("seq 2 against head 0: got %v, want ErrReplicaGap", err)
	}
	if err := reg.ApplyReplicated(1, ups[:1], ""); err != nil {
		t.Fatal(err)
	}
	if err := reg.ApplyReplicated(1, ups[1:2], ""); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("replayed seq 1: got %v, want ErrReplicaGap", err)
	}
	if got := reg.Seq(); got != 1 {
		t.Fatalf("head = %d after rejected commits, want 1", got)
	}
}

// TestApplyReplicatedEmptyCommit: leader commits that cancelled to nothing
// still advance the follower's sequence, keeping the streams aligned.
func TestApplyReplicatedEmptyCommit(t *testing.T) {
	g := generator.Synthetic(10, 20, generator.DefaultSchema(2), 7)
	reg := New(g)
	defer reg.Close()
	if err := reg.ApplyReplicated(1, nil, ""); err != nil {
		t.Fatal(err)
	}
	if got := reg.Seq(); got != 1 {
		t.Fatalf("head = %d after empty replicated commit, want 1", got)
	}
}

// TestSubscribeCommitsBackfill: a FromSeq commit tail stitches the journal
// backfill and the live feed into one seq-contiguous stream.
func TestSubscribeCommitsBackfill(t *testing.T) {
	seed := int64(43)
	g := generator.Synthetic(30, 80, generator.DefaultSchema(3), seed)
	reg := New(g, WithJournal(journal.New()))
	defer reg.Close()
	ups := generator.Updates(g, 10, 0, seed+5)
	for _, u := range ups[:6] {
		if _, err := reg.Apply([]graph.Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := reg.SubscribeCommitsContext(context.Background(), FromSeq(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	for _, u := range ups[6:] {
		if _, err := reg.Apply([]graph.Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	want := uint64(3)
	for want <= reg.Seq() {
		ev := <-sub.C
		if ev.Seq != want {
			t.Fatalf("commit stream seq = %d, want %d (must be contiguous)", ev.Seq, want)
		}
		want++
	}
}

// TestSubscribeCommitsErrors: future seqs, journal-less backfills and
// compacted ranges fail with their typed errors.
func TestSubscribeCommitsErrors(t *testing.T) {
	seed := int64(44)
	g := generator.Synthetic(20, 50, generator.DefaultSchema(2), seed)
	ups := generator.Updates(g, 6, 0, seed)

	bare := New(g.Clone())
	defer bare.Close()
	if _, err := bare.SubscribeCommitsContext(context.Background(), FromSeq(5)); !errors.Is(err, ErrSeqFuture) {
		t.Fatalf("future seq: got %v, want ErrSeqFuture", err)
	}
	if _, err := bare.Apply(ups[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.SubscribeCommitsContext(context.Background(), FromSeq(0)); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("journal-less backfill: got %v, want ErrNoJournal", err)
	}

	ringed := New(g.Clone(), WithJournal(journal.New(journal.WithRing(2))))
	defer ringed.Close()
	for _, u := range ups {
		if _, err := ringed.Apply([]graph.Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ringed.SubscribeCommitsContext(context.Background(), FromSeq(1)); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("compacted backfill: got %v, want journal.ErrCompacted", err)
	}
}

// TestCommitSubCloseOnRegistryClose: closing the registry ends every
// commit subscription by closing its channel.
func TestCommitSubCloseOnRegistryClose(t *testing.T) {
	g := generator.Synthetic(10, 20, generator.DefaultSchema(2), 9)
	reg := New(g)
	sub, err := reg.SubscribeCommitsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if _, ok := <-sub.C; ok {
		t.Fatal("commit subscription channel must close when the registry closes")
	}
}

// TestCommitSubOrdersPatternEvents: a FromSeq commit subscriber gets the
// pattern set as of the attach head — pattern changes inside the
// backfilled range are not replayed — then the backfilled commits, then
// the whole set after every later registration and removal, in order with
// the commits; a RegisterDef mirror carries the registration sequence it
// was given.
func TestCommitSubOrdersPatternEvents(t *testing.T) {
	seed := int64(45)
	g := generator.Synthetic(30, 80, generator.DefaultSchema(3), seed)
	reg := New(g, WithJournal(journal.New()))
	defer reg.Close()
	ups := generator.Updates(g, 4, 0, seed+1)
	apply := func(i int) {
		t.Helper()
		if _, err := reg.Apply(ups[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Register("a", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	apply(0)
	if err := reg.Register("b", testPattern(g, KindBSim, seed+2), KindBSim); err != nil {
		t.Fatal(err)
	}
	apply(1)
	aDef, _ := reg.PatternDef("a")
	reg.Unregister("a")
	apply(2)

	sub, err := reg.SubscribeCommitsContext(context.Background(), FromSeq(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	bDef, _ := reg.PatternDef("b")
	ids := func(defs []journal.PatternDef) string {
		var out []string
		for _, pd := range defs {
			out = append(out, pd.ID)
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	if sub.Seq != 0 || sub.Head != 3 || ids(sub.Patterns) != "b" || !bytes.Equal(sub.Patterns[0].Def, bDef.Def) {
		t.Fatalf("attach: seq %d head %d set %+v, want seq 0, head 3, set {b}", sub.Seq, sub.Head, sub.Patterns)
	}

	mirrored := journal.PatternDef{ID: "c", Kind: string(KindSim), Def: aDef.Def, RegSeq: 7}
	if err := reg.RegisterDef(mirrored); err != nil {
		t.Fatal(err)
	}
	apply(3)
	reg.Unregister("b")

	want := []struct {
		seq  uint64
		set  string // "-" for a commit
		cset bool
	}{
		{1, "-", false}, {2, "-", false}, {3, "-", false},
		{3, "b c", true},
		{4, "-", false},
		{4, "c", true},
	}
	var published journal.PatternDef
	for i, w := range want {
		ev := <-sub.C
		for _, pd := range ev.Patterns {
			if pd.ID == "c" {
				published = pd
			}
		}
		switch {
		case ev.Seq != w.seq || (ev.Patterns != nil) != w.cset:
			t.Fatalf("event %d = %+v, want seq %d (pattern set: %v)", i, ev, w.seq, w.cset)
		case w.cset && ids(ev.Patterns) != w.set:
			t.Fatalf("event %d sets %q, want %q", i, ids(ev.Patterns), w.set)
		case !w.cset && len(ev.Updates) != 1:
			t.Fatalf("event %d = %+v, want commit %d with one update", i, ev, w.seq)
		}
	}
	if published.RegSeq != 7 || !bytes.Equal(published.Def, aDef.Def) {
		t.Fatalf("published c %+v, want the given definition at reg seq 7", published)
	}
}
