package incsim

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
	"gpm/internal/simulation"
)

// A failing case of TestDifferentialBatchRepair names its seed; replay it
// with `go test ./internal/incsim -run TestDifferentialBatchRepair -incsim.seed N`
// (any other seed explores a case outside the fixed list).
var differentialSeed = flag.Int64("incsim.seed", 0, "run TestDifferentialBatchRepair on this one seed")

// groupedProbes is incbsim's maxProbes: a phase of more updates than this is
// probed in groups.
const groupedProbes = 256

// checkInvariants is the core's recount of every counter and table bit.
func (e *Engine) checkInvariants() error { return e.CheckInvariants() }

// TestDifferentialBatchRepair holds the engine — the bounded repair core on
// bound-1 patterns — to simulation.Maximum, an oracle that shares no code
// with the core or with core.Match: random graphs × random normal patterns
// (DAG and cyclic, self-loops included) × mixed batches of 1, 8, 5 % and
// 25 % of |E| with duplicate and self-cancelling updates, on an owned engine
// and a shared one (overlay reset by the write, base committed between
// batches). After every batch each engine's Result must equal the oracle's,
// its counters must recount, its internal match must be the one a fresh
// engine builds (the visible result hides a missed promotion while some
// pattern node has no match), the reported ΔM must be the difference between
// consecutive results, and the minDelta report must be monotone.
func TestDifferentialBatchRepair(t *testing.T) {
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *differentialSeed != 0 {
		seeds = []int64{*differentialSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { differential(t, seed) })
	}
}

// Every eighth seed draws a graph large enough that a 25 % batch has more
// than groupedProbes updates per phase, so that probing in groups is held to
// the oracle too.
func differential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(40)
	m := n * (2 + rng.Intn(3))
	large := seed%8 == 0
	if large {
		n, m = 20*n, 120*n
	}
	truth := generator.RandomGraph(n, m, 3, seed)
	p := randomNormalPattern(rng, seed%2 == 0)

	type subject struct {
		name string
		e    *Engine
		base *graph.Graph // shared mode: the base the test commits to
	}
	owned, err := New(p, truth.Clone(), WithWorkers(1+rng.Intn(4)))
	if err != nil {
		t.Fatal(err)
	}
	base := truth.Clone()
	shared, err := NewShared(p, base)
	if err != nil {
		t.Fatal(err)
	}
	subjects := []subject{{"owned", owned, nil}, {"shared", shared, base}}

	for round := 0; round < 2; round++ {
		quarter := max(1, truth.NumEdges()/4)
		for _, size := range []int{1, 8, max(1, truth.NumEdges()/20), quarter} {
			batch := mixedBatch(rng, truth, size)
			net := graph.NetUpdates(truth, batch)
			if large && size == quarter {
				deletions := 0
				for _, up := range net {
					if up.Op == graph.DeleteEdge {
						deletions++
					}
				}
				if deletions <= groupedProbes {
					t.Fatalf("seed %d: %d net deletions in a batch of %d, not enough to probe in groups", seed, deletions, size)
				}
			}
			if _, err := truth.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
			want := simulation.Maximum(p, truth)
			fresh, err := New(p, truth)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range subjects {
				where := fmt.Sprintf("seed %d, %s engine, round %d, batch of %d", seed, s.name, round, size)
				prev := s.e.Result()
				res, delta := s.e.BatchDelta(batch)
				if s.base != nil {
					if _, err := s.base.ApplyAll(batch); err != nil {
						t.Fatal(err)
					}
				}
				got := s.e.Result()
				if !got.Equal(want) {
					t.Fatalf("%s: incremental=%v batch=%v", where, got, want)
				}
				if err := s.e.checkInvariants(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !s.e.MatchSets().Equal(fresh.MatchSets()) {
					t.Fatalf("%s: internal match %v, a fresh engine has %v", where, s.e.MatchSets(), fresh.MatchSets())
				}
				if d := rel.DeltaOf(prev, got); !slices.Equal(delta.Removed, d.Removed) || !slices.Equal(delta.Added, d.Added) {
					t.Fatalf("%s: reported delta %v, results differ by %v", where, delta, d)
				}
				if res.Original != len(batch) || res.Effective != len(net) {
					t.Fatalf("%s: %+v for a batch of %d that nets to %d", where, res, len(batch), len(net))
				}
			}
		}
	}
}

// randomNormalPattern draws a normal pattern of 2–4 nodes over RandomGraph's
// alphabet; a DAG pattern only has edges from lower to higher node numbers, a
// cyclic one may have any, self-loops included.
func randomNormalPattern(rng *rand.Rand, dag bool) *pattern.Pattern {
	p := pattern.New()
	nodes := 2 + rng.Intn(3)
	for i := 0; i < nodes; i++ {
		p.AddNode(pattern.Label(string(rune('a' + rng.Intn(3)))))
	}
	for tries, edges := 0, 1+rng.Intn(nodes+1); p.NumEdges() < edges && tries < 100; tries++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if dag && u >= v {
			continue
		}
		p.AddEdge(u, v, 1) //nolint:errcheck // in range
	}
	return p
}

// mixedBatch draws size updates against g, about half deletions of present
// edges and half insertions of random pairs (present ones included), and
// salts them with repeats of earlier updates and with insert/delete pairs of
// one edge in either order, which must cancel.
func mixedBatch(rng *rand.Rand, g *graph.Graph, size int) []graph.Update {
	edges := g.EdgeList()
	n := g.NumNodes()
	var ups []graph.Update
	for len(ups) < size {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(2) == 0 && len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			u, v = e[0], e[1]
		}
		switch rng.Intn(10) {
		case 0:
			if len(ups) > 0 {
				ups = append(ups, ups[rng.Intn(len(ups))])
			}
		case 1:
			ups = append(ups, graph.Insert(u, v), graph.Delete(u, v))
		case 2:
			ups = append(ups, graph.Delete(u, v), graph.Insert(u, v))
		default:
			if g.HasEdge(u, v) {
				ups = append(ups, graph.Delete(u, v))
			} else {
				ups = append(ups, graph.Insert(u, v))
			}
		}
	}
	return ups
}
