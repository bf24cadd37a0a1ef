package contq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/iso"
	"gpm/internal/journal"
	"gpm/internal/pattern"
	"gpm/internal/rel"
	"gpm/internal/simulation"
)

// TestRecoverEqualsLive holds recovery to a registry that never went down.
// Two registries take the same random sequence of operations — register
// (sim, bsim, iso), unregister, register an id again, apply, with batches
// that net to nothing among them — one over a memory journal, which stays
// up, one over a durable journal that checkpoints every few commits, which
// is closed and brought back by Recover. The recovered registry must stand
// where the live one does (seq, graph, pattern set, every registration seq,
// every Result), every Result must be the from-scratch match on the
// recovered graph, no engine may have repaired anything on the way, and one
// more batch must move both registries by the same deltas.
//
// A failing seed is replayed with -contq.seed N.
func TestRecoverEqualsLive(t *testing.T) {
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *differentialSeed != 0 {
		seeds = []int64{*differentialSeed}
	}
	var midSnapshot, tailOnly int
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if recoverEqualsLive(t, seed) > 0 {
				midSnapshot++
			} else {
				tailOnly++
			}
		})
	}
	if len(seeds) > 1 && (midSnapshot == 0 || tailOnly == 0) {
		t.Errorf("%d recoveries from a checkpoint plus a tail, %d from the tail alone: want both shapes", midSnapshot, tailOnly)
	}
}

// oracleMatch is the from-scratch match of a registered kind.
func oracleMatch(kind Kind, p *pattern.Pattern, g *graph.Graph) rel.Relation {
	switch kind {
	case KindSim:
		return simulation.Maximum(p, g)
	case KindBSim:
		return core.Match(p, g)
	}
	r := rel.NewRelation(p.NumNodes())
	for _, em := range iso.Enumerate(p, g, 0) {
		for u, v := range em {
			r[u].Add(v)
		}
	}
	return r
}

// recoverEqualsLive runs one seed and returns the seq of the checkpoint the
// recovery started from (0: the bootstrap one, everything else in the tail).
func recoverEqualsLive(t *testing.T, seed int64) uint64 {
	const labels = 4
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(40)
	g := generator.RandomGraph(n, n*(3+rng.Intn(3)), labels, seed)

	dir := t.TempDir()
	j, err := journal.Open(dir, journal.WithSnapshotEvery(uint64(4+rng.Intn(40))))
	if err != nil {
		t.Fatal(err)
	}
	live := New(g.Clone(), WithJournal(journal.New()))
	defer live.Close()
	durable := New(g, WithJournal(j))
	both := []*Registry{live, durable}

	randomPattern := func() (*pattern.Pattern, Kind) {
		kind := []Kind{KindSim, KindBSim, KindIso}[rng.Intn(3)]
		p := pattern.New()
		for i := 0; i < 3; i++ {
			p.AddNode(pattern.Label(string(rune('a' + rng.Intn(labels)))))
		}
		bound := func() int {
			if kind == KindBSim {
				return []int{1, 2, 3, pattern.Unbounded}[rng.Intn(4)]
			}
			return 1
		}
		p.AddEdge(0, 1, bound()) //nolint:errcheck // in range
		p.AddEdge(1, 2, bound()) //nolint:errcheck // in range
		if kind != KindIso && rng.Intn(2) == 0 {
			p.AddEdge(2, 0, bound()) //nolint:errcheck // in range
		}
		return p, kind
	}
	randomBatch := func() []graph.Update {
		var ups []graph.Update
		for size := 1 + rng.Intn(6); len(ups) < size; {
			u, v := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(8) {
			case 0: // cancels within the batch
				ups = append(ups, graph.Insert(u, v), graph.Delete(u, v), graph.Insert(u, v), graph.Delete(u, v))
			case 1: // restates the graph
				if live.g.HasEdge(u, v) {
					ups = append(ups, graph.Insert(u, v))
				} else {
					ups = append(ups, graph.Delete(u, v))
				}
			default:
				if out := live.g.Out(u); len(out) > 0 && rng.Intn(2) == 0 {
					ups = append(ups, graph.Delete(u, out[rng.Intn(len(out))]))
				} else {
					ups = append(ups, graph.Insert(u, v))
				}
			}
		}
		if rng.Intn(6) == 0 {
			for _, up := range slices.Clone(ups) {
				ups = append(ups, up.Inverse()) // the whole batch nets to nothing
			}
		}
		return ups
	}

	ids := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	type standing struct {
		p    *pattern.Pattern
		kind Kind
	}
	registered := map[string]standing{}
	register := func(id string) {
		p, kind := randomPattern()
		for _, reg := range both {
			if err := reg.Register(id, p, kind); err != nil {
				t.Fatalf("seed %d: register %s: %v", seed, id, err)
			}
		}
		registered[id] = standing{p, kind}
	}
	unregister := func(id string) {
		for _, reg := range both {
			if !reg.Unregister(id) {
				t.Fatalf("seed %d: %s was not registered", seed, id)
			}
		}
		delete(registered, id)
	}
	for op, ops := 0, 20+rng.Intn(30); op < ops; op++ {
		id := ids[rng.Intn(len(ids))]
		_, isReg := registered[id]
		switch c := rng.Intn(10); {
		case !isReg && c < 4:
			register(id)
		case isReg && c == 0:
			unregister(id)
		case isReg && c == 1: // the same id again, at a later seq
			unregister(id)
			register(id)
		default:
			ups := randomBatch()
			for _, reg := range both {
				if _, err := reg.Apply(ups); err != nil {
					t.Fatalf("seed %d: apply: %v", seed, err)
				}
			}
		}
	}

	durable.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snapshotSeq := j2.Stats().SnapshotSeq
	recovered, err := Recover(j2)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	defer recovered.Close()

	if net := recovered.Stats().Network; net.JoinRepairs != 0 {
		t.Fatalf("seed %d: %d join repairs ran during recovery", seed, net.JoinRepairs)
	}
	if got, want := recovered.Seq(), live.Seq(); got != want {
		t.Fatalf("seed %d: recovered at seq %d, the live registry is at %d", seed, got, want)
	}
	lg, _, _ := live.Export()
	rg, _, _ := recovered.Export()
	if rg.NumNodes() != lg.NumNodes() || !slices.Equal(rg.EdgeList(), lg.EdgeList()) {
		t.Fatalf("seed %d: recovered graph %d/%d, live %d/%d, or another edge set", seed, rg.NumNodes(), rg.NumEdges(), lg.NumNodes(), lg.NumEdges())
	}
	if got := len(recovered.Patterns()); got != len(registered) {
		t.Fatalf("seed %d: %d patterns recovered, %d were registered", seed, got, len(registered))
	}
	for id, s := range registered {
		got, ok := recovered.PatternDef(id)
		want, _ := live.PatternDef(id)
		if !ok || got.Kind != want.Kind || got.RegSeq != want.RegSeq || string(got.Def) != string(want.Def) {
			t.Fatalf("seed %d: pattern %s recovered as %+v (%v), live %+v", seed, id, got, ok, want)
		}
		res, _ := recovered.Result(id)
		if liveRes, _ := live.Result(id); !res.Equal(liveRes) {
			t.Fatalf("seed %d: pattern %s: recovered %v, live %v", seed, id, res, liveRes)
		}
		if scratch := oracleMatch(s.kind, s.p, rg); !res.Equal(scratch) {
			t.Fatalf("seed %d: pattern %s (%s): recovered %v, from scratch %v", seed, id, s.kind, res, scratch)
		}
	}

	// One more batch: the two registries must move alike.
	type pair struct{ live, recovered *Subscription }
	subs := map[string]pair{}
	for id := range registered {
		ls, err := live.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := recovered.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		subs[id] = pair{ls, rs}
	}
	ups := randomBatch()
	for _, reg := range []*Registry{live, recovered} {
		if _, err := reg.Apply(ups); err != nil {
			t.Fatalf("seed %d: apply after recovery: %v", seed, err)
		}
	}
	for id, s := range subs {
		le, re := <-s.live.C, <-s.recovered.C
		if le.Seq != re.Seq || !slices.Equal(le.Delta.Removed, re.Delta.Removed) || !slices.Equal(le.Delta.Added, re.Delta.Added) {
			t.Fatalf("seed %d: pattern %s after %v: live seq %d %v, recovered seq %d %v", seed, id, ups, le.Seq, le.Delta, re.Seq, re.Delta)
		}
		s.live.Cancel()
		s.recovered.Cancel()
	}
	return snapshotSeq
}
