package contq

import (
	"context"
	"strings"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/obs"
)

// TestCommitTelemetry drives real commits through an isolated obs registry
// and checks the whole observability surface at once: the commit observer
// fires with a consistent per-stage breakdown, Stats().Timings reflects the
// same instruments, the subscription gauges track attach/detach, and the
// Prometheus exposition carries the stage series.
func TestCommitTelemetry(t *testing.T) {
	seed := int64(3)
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
	ups := generator.Updates(g, 20, 20, seed+9)

	mreg := obs.NewRegistry()
	var timings []CommitTiming
	reg := New(g, WithMetrics(mreg), WithCommitObserver(func(ct CommitTiming) {
		timings = append(timings, ct)
	}))
	defer reg.Close()
	if err := reg.Register("q", testPattern(g, KindSim, seed), KindSim); err != nil {
		t.Fatal(err)
	}
	sub, err := reg.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Stats().Timings.SubscriptionsActive; got != 1 {
		t.Fatalf("subscriptions_active = %d after Subscribe, want 1", got)
	}

	const commits = 5
	for i := 0; i < commits; i++ {
		if _, err := reg.Apply(ups[i*4 : (i+1)*4]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < commits; i++ {
		<-sub.C
	}

	// The observer saw every commit, in order, with a sane breakdown.
	if len(timings) != commits {
		t.Fatalf("observer fired %d times, want %d", len(timings), commits)
	}
	for i, ct := range timings {
		if ct.Seq != uint64(i+1) {
			t.Fatalf("observer timing %d has seq %d, want %d", i, ct.Seq, i+1)
		}
		if ct.Total <= 0 {
			t.Fatalf("commit %d: non-positive total %v", ct.Seq, ct.Total)
		}
		if ct.Validate <= 0 {
			t.Fatalf("commit %d: validate stage not timed", ct.Seq)
		}
		if ct.Patterns != 1 || ct.SlowestPattern != "q" {
			t.Fatalf("commit %d: patterns=%d slowest=%q, want 1/%q", ct.Seq, ct.Patterns, ct.SlowestPattern, "q")
		}
		if sum := ct.Validate + ct.Network + ct.Repair + ct.Journal + ct.Publish; sum > ct.Total {
			t.Fatalf("commit %d: stages sum %v exceeds total %v", ct.Seq, sum, ct.Total)
		}
	}

	ts := reg.Stats().Timings
	if ts == nil {
		t.Fatal("Stats().Timings is nil")
	}
	if ts.TotalMS.Count != commits {
		t.Fatalf("total histogram count = %d, want %d", ts.TotalMS.Count, commits)
	}
	if ts.ValidateMS.Count != commits || ts.RepairMS.Count != commits || ts.PublishMS.Count != commits {
		t.Fatalf("stage counts = validate %d repair %d publish %d, want all %d",
			ts.ValidateMS.Count, ts.RepairMS.Count, ts.PublishMS.Count, commits)
	}
	if ts.QueueWaitMS.Count != commits || ts.DrainBatches.Count != commits {
		t.Fatalf("queue telemetry counts = wait %d drain %d, want %d", ts.QueueWaitMS.Count, ts.DrainBatches.Count, commits)
	}
	if got := ts.RepairByKindMS["sim"].Count; got != commits {
		t.Fatalf("repair_by_kind[sim] count = %d, want %d", got, commits)
	}
	if ts.TotalMS.Sum <= 0 || ts.TotalMS.Max <= 0 {
		t.Fatalf("total snapshot sum/max not positive: %+v", ts.TotalMS)
	}

	// The exposition carries the stage series with the stage label.
	var b strings.Builder
	if err := mreg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`gpm_commit_stage_ms_count{stage="validate"} 5`,
		`gpm_commit_ms_count 5`,
		`gpm_commits_total 5`,
		`gpm_subscriptions_active 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}

	sub.Cancel()
	if got := reg.Stats().Timings.SubscriptionsActive; got != 0 {
		t.Fatalf("subscriptions_active = %d after Cancel, want 0", got)
	}
	if hw := ts.MailboxHighWater; hw < 1 {
		t.Fatalf("mailbox high-water = %d, want >= 1", hw)
	}
}

// TestStatsTimingsIsolated ensures WithMetrics keeps registries from
// cross-talking: a second registry on its own obs.Registry starts at zero.
func TestStatsTimingsIsolated(t *testing.T) {
	seed := int64(4)
	g := generator.Synthetic(30, 90, generator.DefaultSchema(2), seed)
	ups := generator.Updates(g, 4, 4, seed)

	a := New(g.Clone(), WithMetrics(obs.NewRegistry()))
	defer a.Close()
	if _, err := a.Apply(ups); err != nil {
		t.Fatal(err)
	}
	b := New(g.Clone(), WithMetrics(obs.NewRegistry()))
	defer b.Close()
	if got := b.Stats().Timings.TotalMS.Count; got != 0 {
		t.Fatalf("fresh registry shows %d commits in its timings", got)
	}
	if got := a.Stats().Timings.TotalMS.Count; got != 1 {
		t.Fatalf("first registry timings count = %d, want 1", got)
	}
}

// TestCommitSubMailboxHighWater: a commit tail nobody reads — a stalled
// follower — shows up in the mailbox high-water gauge, like a stalled ΔM
// subscriber does.
func TestCommitSubMailboxHighWater(t *testing.T) {
	seed := int64(5)
	g := generator.Synthetic(30, 90, generator.DefaultSchema(2), seed)
	reg := New(g, WithMetrics(obs.NewRegistry()))
	defer reg.Close()
	sub, err := reg.SubscribeCommitsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	const commits = 32
	for i := 0; i < commits; i++ {
		if _, err := reg.Apply(nil); err != nil { // empty batches still commit
			t.Fatal(err)
		}
	}
	// The pump may hold the one event it is offering on C.
	if hw := reg.Stats().Timings.MailboxHighWater; hw < commits-1 || hw > commits {
		t.Fatalf("mailbox high-water = %d after %d unread commits, want %d (or one less)", hw, commits, commits)
	}
}
