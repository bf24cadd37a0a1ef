package contq

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/rel"
)

// blockMatcher stalls every repair until released — a stand-in for an
// expensive engine, letting tests observe the writer mid-commit.
type blockMatcher struct {
	entered chan struct{} // closed when a repair starts
	unblock chan struct{} // the repair returns when this closes
}

func (m *blockMatcher) Delta() (rel.Delta, bool) {
	close(m.entered)
	<-m.unblock
	return rel.Delta{}, true
}

func (m *blockMatcher) Result() rel.Relation { return rel.NewRelation(1) }

func (m *blockMatcher) Release() {}

// TestApplyContextCanceledBeforeCall: a dead context fails fast without
// touching the queue.
func TestApplyContextCanceledBeforeCall(t *testing.T) {
	g := generator.Synthetic(20, 60, generator.DefaultSchema(3), 1)
	reg := New(g)
	defer reg.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := reg.ApplyContext(ctx, []graph.Update{graph.Insert(0, 1)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyContext on a dead ctx: %v", err)
	}
	if got := reg.Seq(); got != 0 {
		t.Fatalf("seq %d after a canceled Apply, want 0", got)
	}
}

// TestApplyContextWithdrawsQueuedBatch: while one commit blocks the
// writer, a second ApplyContext that gets canceled must return promptly,
// and its batch — still queued — must be withdrawn so it never commits.
func TestApplyContextWithdrawsQueuedBatch(t *testing.T) {
	seed := int64(2)
	g := generator.Synthetic(20, 60, generator.DefaultSchema(3), seed)
	reg := New(g)
	bm := &blockMatcher{entered: make(chan struct{}), unblock: make(chan struct{})}
	reg.mu.Lock()
	reg.pats["slow"] = &registration{id: "slow", kind: KindSim, m: bm}
	reg.mu.Unlock()

	ups := generator.Updates(g, 4, 0, seed+7)
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		if _, err := reg.Apply(ups[:1]); err != nil {
			t.Error(err)
		}
	}()
	<-bm.entered // the writer is mid-commit and will stay there

	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan struct{})
	var seq uint64
	var err error
	go func() {
		defer close(canceled)
		seq, err = reg.ApplyContext(ctx, ups[1:2])
	}()
	time.Sleep(10 * time.Millisecond) // let the second batch enqueue
	cancel()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("ApplyContext did not return after cancellation")
	}
	if seq != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ApplyContext: seq=%d err=%v", seq, err)
	}

	close(bm.unblock)
	<-firstDone
	// Only the first batch committed: the withdrawn one advanced nothing.
	if got := reg.Seq(); got != 1 {
		t.Fatalf("seq %d after withdrawal, want 1", got)
	}
	reg.Close()
}

// TestApplyContextBackgroundCompletes: an uncanceled ApplyContext behaves
// exactly like Apply — the commit lands and the seq comes back.
func TestApplyContextBackgroundCompletes(t *testing.T) {
	seed := int64(3)
	g := generator.Synthetic(30, 90, generator.DefaultSchema(3), seed)
	reg := New(g)
	defer reg.Close()
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	ups := generator.Updates(g, 6, 0, seed+7)
	for i, up := range ups[:3] {
		seq, err := reg.ApplyContext(context.Background(), []graph.Update{up})
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("ApplyContext %d: seq=%d err=%v", i, seq, err)
		}
	}
}

// TestSubscribeContextCanceled: both subscribe paths fail fast on a dead
// context — including the FromSeq resume, whose backfill is the slow part.
func TestSubscribeContextCanceled(t *testing.T) {
	seed := int64(4)
	g := generator.Synthetic(40, 160, generator.DefaultSchema(3), seed)
	reg := New(g, WithJournal(journal.New()))
	defer reg.Close()
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	for _, up := range generator.Updates(g, 6, 0, seed+7) {
		if _, err := reg.Apply([]graph.Update{up}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := reg.SubscribeContext(ctx, "q"); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubscribeContext on a dead ctx: %v", err)
	}
	if _, err := reg.SubscribeContext(ctx, "q", FromSeq(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("FromSeq resume on a dead ctx: %v", err)
	}
	// The failed resume must not leave a zombie subscriber attached.
	reg.mu.RLock()
	n := reg.pats["q"].subs.len()
	reg.mu.RUnlock()
	if n != 0 {
		t.Fatalf("%d subscribers left behind by canceled subscribes", n)
	}
	// A live context still works and sees the full history.
	sub, err := reg.SubscribeContext(context.Background(), "q", FromSeq(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	for want := uint64(2); want <= 6; want++ {
		ev := <-sub.C
		if ev.Seq != want {
			t.Fatalf("backfilled seq %d, want %d", ev.Seq, want)
		}
	}
}
