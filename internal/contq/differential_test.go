package contq

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// A failing case of TestRegistryDifferentialUnderCoalescing, of
// TestRecoverEqualsLive or of TestNetworkFromSeqBackfillEquivalence names
// its seed; replay it with
// `go test ./internal/contq -run TestRegistryDifferentialUnderCoalescing -contq.seed N`
// (under coalescing the interleaving of the writers is the scheduler's, so a
// replay draws the same graph, patterns and batches but not necessarily the
// same commits).
var differentialSeed = flag.Int64("contq.seed", 0, "run the seeded differential tests on this one seed")

// TestRegistryDifferentialUnderCoalescing holds the whole write path —
// queueing, coalescing, netting, the evaluation network's relevance filter
// and shared joins, the one repair core under both simulation kinds,
// IncIsoMat, the canonical commit — to the from-scratch oracles. Eight
// simulation patterns shaped like serve-stream's (a three-label path, every
// other one closed into a cycle), two bounded triangles with k = 2 and two
// iso paths, one with a renumbered twin that shares its join, stand in a
// registry while four writers push 4-update batches at it concurrently, so
// that commits coalesce; whenever the writers have all returned, every
// pattern's Result must equal simulation.Maximum (core.Match for the
// bounded ones, the embedding enumeration for the iso ones) on the graph
// Export hands out.
func TestRegistryDifferentialUnderCoalescing(t *testing.T) {
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *differentialSeed != 0 {
		seeds = []int64{*differentialSeed}
	}
	var coalesced uint64
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { coalesced += differentialUnderCoalescing(t, seed) })
	}
	if coalesced == 0 && len(seeds) > 1 {
		t.Error("no Apply call shared a commit with another: the test did not exercise coalescing")
	}
}

// differentialUnderCoalescing runs one seed and returns how many Apply calls
// shared their commit.
func differentialUnderCoalescing(t *testing.T, seed int64) uint64 {
	const labels, writers, perWriter, batch, rounds = 5, 4, 3, 4, 6
	rng := rand.New(rand.NewSource(seed))
	n := 60 + rng.Intn(60)
	g := generator.RandomGraph(n, n*(4+rng.Intn(3)), labels, seed)
	reg := New(g)
	defer reg.Close()

	label := func(i int) pattern.Predicate { return pattern.Label(string(rune('a' + i%labels))) }
	// kind is the registered kind, resolved once the pattern is in.
	type standing struct {
		id   string
		p    *pattern.Pattern
		kind Kind
	}
	var pats []standing
	for i := 0; i < 8; i++ {
		p := pattern.New()
		for j := 0; j < 3; j++ {
			p.AddNode(label(i + j))
		}
		p.AddEdge(0, 1, 1) //nolint:errcheck // in range
		p.AddEdge(1, 2, 1) //nolint:errcheck // in range
		if i%2 == 0 {
			p.AddEdge(2, 0, 1) //nolint:errcheck // in range
		}
		pats = append(pats, standing{fmt.Sprintf("sim%d", i), p, KindAuto})
	}
	for i := 0; i < 2; i++ {
		p := pattern.New()
		for j := 0; j < 3; j++ {
			p.AddNode(label(i + j))
		}
		p.AddEdge(0, 1, 2) //nolint:errcheck // in range
		p.AddEdge(1, 2, 2) //nolint:errcheck // in range
		p.AddEdge(0, 2, 1) //nolint:errcheck // in range
		pats = append(pats, standing{fmt.Sprintf("bsim%d", i), p, KindAuto})
	}
	for i := 0; i < 2; i++ {
		p := pattern.New()
		for j := 0; j < 3; j++ {
			p.AddNode(label(i + 2*j))
		}
		p.AddEdge(0, 1, 1) //nolint:errcheck // in range
		p.AddEdge(1, 2, 1) //nolint:errcheck // in range
		pats = append(pats, standing{fmt.Sprintf("iso%d", i), p, KindIso})
	}
	pats = append(pats, standing{"iso0-twin", renumberPattern(t, pats[len(pats)-2].p, []int{2, 0, 1}), KindIso})
	for i := range pats {
		s := &pats[i]
		if err := reg.Register(s.id, s.p, s.kind); err != nil {
			t.Fatalf("seed %d: register %s: %v", seed, s.id, err)
		}
		info, _ := reg.Info(s.id)
		s.kind = info.Kind
	}

	nonEmpty := 0
	for round := 0; round < rounds; round++ {
		// The writers draw their deletions from the edges of the last quiet
		// state, so most hit a present edge and some one that another writer
		// has just removed.
		snapshot, _, _ := reg.Export()
		edges := snapshot.EdgeList()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wrng := rand.New(rand.NewSource(seed<<16 + int64(round)<<8 + int64(w)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					ups := make([]graph.Update, batch)
					for j := range ups {
						switch {
						case j%2 == 0:
							ups[j] = graph.Insert(wrng.Intn(n), wrng.Intn(n))
						case wrng.Intn(5) == 0 || len(edges) == 0:
							ups[j] = graph.Delete(wrng.Intn(n), wrng.Intn(n)) // absent, most likely
						default:
							e := edges[wrng.Intn(len(edges))]
							ups[j] = graph.Delete(e[0], e[1])
						}
					}
					if _, err := reg.Apply(ups); err != nil {
						t.Errorf("seed %d, round %d: apply: %v", seed, round, err)
					}
				}
			}()
		}
		wg.Wait()
		now, seq, _ := reg.Export()
		for _, s := range pats {
			got, ok := reg.Result(s.id)
			if !ok {
				t.Fatalf("seed %d, round %d: pattern %s is gone", seed, round, s.id)
			}
			want := oracleMatch(s.kind, s.p, now)
			if !got.Equal(want) {
				t.Fatalf("seed %d, round %d, seq %d, pattern %s: registry=%v from scratch=%v", seed, round, seq, s.id, got, want)
			}
			if !want.Empty() {
				nonEmpty++
			}
		}
	}
	st := reg.Stats()
	t.Logf("seed %d: %d of %d applies shared a commit, %d of %d checked matches nonempty", seed, st.CoalescedApplies, st.Applies, nonEmpty, rounds*len(pats))
	return st.CoalescedApplies
}
