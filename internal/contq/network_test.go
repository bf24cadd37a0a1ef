package contq

import (
	"fmt"
	"math/rand"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/journal"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// These tests pin the shared evaluation network's registry-level contract:
// every pattern lives in internal/gdn, the registry's Result and
// per-commit ΔM on subscriptions must equal the from-scratch oracles,
// FromSeq backfill must reproduce that live feed, and the sharing counters
// must prove the marginal cost of overlapping patterns drops.

// renumberPattern relabels p by the permutation m (m[orig] = new id).
func renumberPattern(t *testing.T, p *pattern.Pattern, m []int) *pattern.Pattern {
	t.Helper()
	inv := make([]int, len(m))
	for u, c := range m {
		inv[c] = u
	}
	q := pattern.New()
	for c := range inv {
		q.AddNode(p.Pred(inv[c]))
	}
	for _, e := range p.Edges() {
		if err := q.AddColoredEdge(m[e.From], m[e.To], e.Bound, e.Color); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

func sameDelta(a, b rel.Delta) bool {
	a.Sort()
	b.Sort()
	if len(a.Removed) != len(b.Removed) || len(a.Added) != len(b.Added) {
		return false
	}
	for i := range a.Removed {
		if a.Removed[i] != b.Removed[i] {
			return false
		}
	}
	for i := range a.Added {
		if a.Added[i] != b.Added[i] {
			return false
		}
	}
	return true
}

// TestNetworkRegistryEquivalence drives a registry holding renumbered
// sim/bsim twins (which share joins), an auto pattern and an iso pattern —
// all six network handles — with one update stream, and holds every Result and every subscriber event
// to the oracle: Result equals the from-scratch match at every seq, and each
// event's delta is exactly the oracle's change across its commit.
func TestNetworkRegistryEquivalence(t *testing.T) {
	seed := int64(31)
	g := generator.RandomGraph(50, 120, 3, seed)
	reg := New(g)
	defer reg.Close()

	sim := generator.RandomPattern(3, 3, 3, 1, seed+1)
	bsim := generator.RandomPattern(3, 3, 3, 3, seed+2)
	pats := map[string]struct {
		p    *pattern.Pattern
		kind Kind
	}{
		"sim":       {sim, KindSim},
		"sim-twin":  {renumberPattern(t, sim, []int{2, 0, 1}), KindSim},
		"bsim":      {bsim, KindBSim},
		"bsim-twin": {renumberPattern(t, bsim, []int{1, 2, 0}), KindBSim},
		"auto":      {generator.RandomPattern(2, 2, 3, 1, seed+3), KindAuto},
		"iso":       {generator.RandomPattern(2, 1, 3, 1, seed+4), KindIso},
	}
	type standing struct {
		p    *pattern.Pattern
		kind Kind // resolved
		sub  *Subscription
		prev rel.Relation // the oracle at the last checked seq
	}
	live := make(map[string]*standing)
	for id, pk := range pats {
		if err := reg.Register(id, pk.p, pk.kind); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		info, _ := reg.Info(id)
		kind := info.Kind
		s, err := reg.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleMatch(kind, pk.p, reg.g)
		if !s.Snapshot.Equal(want) {
			t.Fatalf("%s: initial snapshot %v, from scratch %v", id, s.Snapshot, want)
		}
		live[id] = &standing{p: pk.p, kind: kind, sub: s, prev: want}
	}

	rng := rand.New(rand.NewSource(seed))
	moved := 0
	for round := 0; round < 30; round++ {
		ups := generator.Updates(reg.g, 1+rng.Intn(4), rng.Intn(3), seed+int64(100+round))
		seq, err := reg.Apply(ups)
		if err != nil {
			t.Fatalf("round %d apply: %v", round, err)
		}
		for id, s := range live {
			now := oracleMatch(s.kind, s.p, reg.g)
			ev := <-s.sub.C
			if ev.Seq != seq {
				t.Fatalf("round %d %s: event seq %d want %d", round, id, ev.Seq, seq)
			}
			if want := rel.DeltaOf(s.prev, now); !sameDelta(ev.Delta, want) {
				t.Fatalf("round %d %s: delta mismatch\n got  %+v\n want %+v", round, id, ev.Delta, want)
			}
			if got, _ := reg.Result(id); !got.Equal(now) {
				t.Fatalf("round %d %s: Result %v, from scratch %v", round, id, got, now)
			}
			if !ev.Delta.Empty() {
				moved++
			}
			s.prev = now
		}
	}
	if moved == 0 {
		t.Fatal("no pattern's match moved over 30 commits: the stream exercised nothing")
	}

	// The twins share joins, and sharing saved repairs.
	ns := reg.Stats().Network
	if ns.Patterns != 6 {
		t.Fatalf("want 6 network patterns, got %+v", ns)
	}
	if ns.RegisterReused < 2 || ns.JoinNodes > 4 {
		t.Fatalf("renumbered twins did not share joins: %+v", ns)
	}
	if ns.RepairsSaved == 0 {
		t.Fatalf("no repairs saved over 30 commits: %+v", ns)
	}
}

// TestNetworkFromSeqBackfillEquivalence: a FromSeq resume backfills deltas
// through a one-pattern replay network, so its events must reproduce
// exactly what the live feed delivered for the same commits — and a resume
// must leave the live network as it was. Both sides are gdn handles, so
// every live event is first held to the from-scratch oracles' change
// across its commit. A failing seed replays with
// `go test ./internal/contq -run TestNetworkFromSeqBackfillEquivalence -contq.seed N`.
func TestNetworkFromSeqBackfillEquivalence(t *testing.T) {
	seeds := []int64{47, 48, 49, 50, 51}
	if *differentialSeed != 0 {
		seeds = []int64{*differentialSeed}
	}
	moved := 0
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { moved += backfillEquivalence(t, seed) })
	}
	if moved == 0 && len(seeds) > 1 {
		t.Error("no backfilled delta was nonempty: the resumes replayed nothing")
	}
}

// backfillEquivalence runs one seed and returns how many backfilled events
// carried a nonempty delta.
func backfillEquivalence(t *testing.T, seed int64) int {
	g := generator.RandomGraph(40, 100, 3, seed)
	reg := New(g, WithJournal(journal.New()))
	defer reg.Close()

	sim := generator.RandomPattern(3, 3, 3, 1, seed+1)
	bsim := generator.RandomPattern(3, 2, 3, 3, seed+2)
	isoPat := generator.RandomPattern(3, 2, 3, 1, seed+3)
	// A bound-2 path: a distance-sensitive join, which the network's
	// relevance filter never skips.
	bsim2 := pattern.New()
	for _, l := range []string{"a", "b", "c"} {
		bsim2.AddNode(pattern.Label(l))
	}
	for u := 0; u < 2; u++ {
		if err := bsim2.AddEdge(u, u+1, 2); err != nil {
			t.Fatal(err)
		}
	}
	pats := map[string]struct {
		p    *pattern.Pattern
		kind Kind
	}{
		"sim":        {sim, KindSim},
		"sim-twin":   {renumberPattern(t, sim, []int{1, 2, 0}), KindSim},
		"bsim":       {bsim, KindBSim},
		"bsim2":      {bsim2, KindBSim},
		"bsim2-twin": {renumberPattern(t, bsim2, []int{2, 0, 1}), KindBSim},
		"iso":        {isoPat, KindIso},
		"iso-twin":   {renumberPattern(t, isoPat, []int{2, 0, 1}), KindIso},
	}
	live := make(map[string]*Subscription)
	prev := make(map[string]rel.Relation)
	for id, pk := range pats {
		if err := reg.Register(id, pk.p, pk.kind); err != nil {
			t.Fatal(err)
		}
		s, err := reg.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = s
		prev[id] = oracleMatch(pk.kind, pk.p, reg.g)
	}

	const commits = 12
	liveEvents := make(map[string][]Event)
	for i := 0; i < commits; i++ {
		ups := generator.Updates(reg.g, 2, 1, seed+int64(10+i))
		if _, err := reg.Apply(ups); err != nil {
			t.Fatal(err)
		}
		for id, s := range live {
			ev := <-s.C
			now := oracleMatch(pats[id].kind, pats[id].p, reg.g)
			if want := rel.DeltaOf(prev[id], now); !sameDelta(ev.Delta, want) {
				t.Fatalf("seed %d %s: live seq %d diverged from the oracle\n got  %+v\n want %+v", seed, id, ev.Seq, ev.Delta, want)
			}
			prev[id] = now
			liveEvents[id] = append(liveEvents[id], ev)
		}
	}

	before := *reg.Stats().Network
	moved := 0
	for id, evs := range liveEvents {
		from := uint64(commits / 3)
		s, err := reg.Subscribe(id, FromSeq(from))
		if err != nil {
			t.Fatalf("seed %d %s FromSeq(%d): %v", seed, id, from, err)
		}
		for _, want := range evs[from:] {
			if !want.Delta.Empty() {
				moved++
			}
			got := <-s.C
			if got.Seq != want.Seq || !sameDelta(got.Delta, want.Delta) {
				t.Fatalf("seed %d %s: backfilled seq %d diverged from live feed\n got  %+v\n want %+v",
					seed, id, want.Seq, got, want)
			}
		}
		s.Cancel()
	}
	after := *reg.Stats().Network
	if after.Patterns != before.Patterns || after.JoinNodes != before.JoinNodes || after.RegisterReused != before.RegisterReused {
		t.Fatalf("seed %d: resumes touched the live network: before %+v, after %+v", seed, before, after)
	}
	return moved
}

// TestNetworkSublinearity is the headline sharing property: registering
// 100 structurally-overlapping patterns collapses to a handful of shared
// join nodes, and each commit repairs those joins once instead of 100
// private engines.
func TestNetworkSublinearity(t *testing.T) {
	seed := int64(53)
	g := generator.RandomGraph(60, 150, 3, seed)
	reg := New(g)
	defer reg.Close()

	// 5 structural families × 20 renumberings each = 100 patterns.
	const families, perFamily = 5, 20
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, 0, families*perFamily)
	for f := 0; f < families; f++ {
		base := generator.RandomPattern(4, 4, 3, 1, seed+int64(f))
		for k := 0; k < perFamily; k++ {
			perm := rng.Perm(base.NumNodes())
			id := string(rune('a'+f)) + "-" + string(rune('0'+k/10)) + string(rune('0'+k%10))
			if err := reg.Register(id, renumberPattern(t, base, perm), KindSim); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	ns := reg.Stats().Network
	if ns == nil || ns.Patterns != families*perFamily {
		t.Fatalf("want %d network patterns, got %+v", families*perFamily, ns)
	}
	if ns.JoinNodes > families {
		t.Fatalf("100 overlapping patterns need ≤%d joins, got %+v", families, ns)
	}
	if ns.RegisterReused < families*(perFamily-1) {
		t.Fatalf("want ≥%d reused registrations, got %+v", families*(perFamily-1), ns)
	}

	const commits = 10
	for i := 0; i < commits; i++ {
		ups := generator.Updates(reg.g, 3, 1, seed+int64(100+i))
		if _, err := reg.Apply(ups); err != nil {
			t.Fatal(err)
		}
	}
	ns = reg.Stats().Network
	// Each commit repairs at most one join per family instead of 100
	// engines, so ≥95 of every 100 per-pattern repairs are saved.
	if ns.JoinRepairs > int64(commits*families) {
		t.Fatalf("joins repaired more often than once per family per commit: %+v", ns)
	}
	minSaved := int64(commits * (families*perFamily - families))
	if ns.RepairsSaved < minSaved {
		t.Fatalf("want ≥%d repairs saved over %d commits, got %+v", minSaved, commits, ns)
	}

	// Unregistering everything tears the shared state down.
	for _, id := range ids {
		if !reg.Unregister(id) {
			t.Fatalf("unregister %s failed", id)
		}
	}
	ns = reg.Stats().Network
	if ns.Patterns != 0 || ns.JoinNodes != 0 || ns.PredNodes != 0 {
		t.Fatalf("network not empty after unregistering all: %+v", ns)
	}
}
