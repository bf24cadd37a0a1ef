package incbsim

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// A failing case of TestDifferentialBatchRepair names its seed; replay it
// with `go test ./internal/incbsim -run TestDifferentialBatchRepair -incbsim.seed N`
// (any other seed explores a case outside the fixed list).
var differentialSeed = flag.Int64("incbsim.seed", 0, "run TestDifferentialBatchRepair on this one seed")

// TestDifferentialBatchRepair holds the per-batch repair to the from-scratch
// oracle: random graphs × random b-patterns (DAG and cyclic, bounds 1, 2, 3
// and *) × mixed batches of 1, 8, 5 % and 25 % of |E| with duplicate and
// self-cancelling updates, on an owned engine and a shared one (overlay reset
// by the write, base committed between batches). The first four seeds (and a
// replayed one) also run on the repo benchmark's workload shape
// (workloadDifferential).
// After every batch each engine's Result must equal core.Match, its
// counters must recount, its internal match must be the one a fresh engine
// builds (the visible result hides a missed promotion while some pattern
// node has no match), and the reported ΔM must be the difference between
// consecutive results.
func TestDifferentialBatchRepair(t *testing.T) {
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *differentialSeed != 0 {
		seeds = []int64{*differentialSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { differential(t, seed, false) })
	}
	for _, seed := range seeds[:min(4, len(seeds))] {
		t.Run(fmt.Sprintf("workload/seed=%d", seed), func(t *testing.T) { workloadDifferential(t, seed) })
	}
}

// TestDifferentialWidePattern is the same oracle over patterns of more than
// 64 nodes, whose membership planes take two words per graph node.
func TestDifferentialWidePattern(t *testing.T) {
	for seed := int64(201); seed <= 204; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { differential(t, seed, true) })
	}
}

// subject is an engine under the differential oracle.
type subject struct {
	name string
	e    *Engine
	base *graph.Graph // shared mode: the base the test commits to
}

// Every eighth seed draws a graph large enough that a 25 % batch has more
// than maxProbes updates per phase, so that probing in groups is held to the
// oracle too.
func differential(t *testing.T, seed int64, wide bool) {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(40)
	m := n * (2 + rng.Intn(3))
	large := seed%8 == 0
	if large {
		n, m = 20*n, 150*n
	}
	truth := generator.RandomGraph(n, m, 3, seed)
	p := randomBPattern(rng, seed%2 == 0, wide)

	owned, err := New(p, truth.Clone(), WithWorkers(1+rng.Intn(4)))
	if err != nil {
		t.Fatal(err)
	}
	base := truth.Clone()
	shared, err := NewShared(p, base)
	if err != nil {
		t.Fatal(err)
	}
	if wide && owned.stride < 2 {
		t.Fatalf("seed %d: a pattern of %d nodes, stride %d", seed, p.NumNodes(), owned.stride)
	}
	subjects := []subject{{"owned", owned, nil}, {"shared", shared, base}}

	for round := 0; round < 2; round++ {
		quarter := max(1, truth.NumEdges()/4)
		for _, size := range []int{1, 8, max(1, truth.NumEdges()/20), quarter} {
			batch := mixedBatch(rng, truth, size)
			if large && size == quarter {
				deletions := 0
				for _, up := range graph.NetUpdates(truth, batch) {
					if up.Op == graph.DeleteEdge {
						deletions++
					}
				}
				if deletions <= maxProbes {
					t.Fatalf("seed %d: %d net deletions in a batch of %d, not enough to probe in groups", seed, deletions, size)
				}
			}
			checkBatch(t, fmt.Sprintf("seed %d, round %d, batch of %d", seed, round, size), p, truth, batch, subjects)
		}
	}
}

// workloadDifferential is the oracle on the shape of the repo benchmark's
// workloads: a preferential-attachment graph (generator.Synthetic, 2000
// nodes, 8000 edges, 12 labels) under a triangle with one edge of k = 2 or
// 3 hops, fed sixteen degree-biased mixed batches of 16–64 updates
// (generator.Updates) through a shared engine on two workers. Its hubs give
// an insertion phase far more candidates in slack of a tail than a uniform
// graph does.
func workloadDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	truth := generator.Synthetic(2000, 8000, generator.DefaultSchema(12), seed)
	p := pattern.New()
	l := rng.Intn(10)
	for i := 0; i < 3; i++ {
		p.AddNode(pattern.Label(fmt.Sprintf("L%d", l+i)))
	}
	for _, pe := range [][3]int{{0, 1, 2 + int(seed%2)}, {1, 2, 2}, {0, 2, 1}} {
		if err := p.AddEdge(pe[0], pe[1], pe[2]); err != nil {
			t.Fatal(err)
		}
	}
	base := truth.Clone()
	shared, err := NewShared(p, base, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	subjects := []subject{{"shared", shared, base}}
	for i := 0; i < 16; i++ {
		size := 16 + rng.Intn(49)
		batch := generator.Updates(truth, size/2, size-size/2, rng.Int63())
		checkBatch(t, fmt.Sprintf("workload seed %d, batch %d of %d", seed, i, size), p, truth, batch, subjects)
	}
}

// checkBatch commits batch to truth and feeds it to every subject (and to a
// shared subject's base), then holds each to the oracle.
func checkBatch(t *testing.T, where string, p *pattern.Pattern, truth *graph.Graph, batch []graph.Update, subjects []subject) {
	t.Helper()
	if _, err := truth.ApplyAll(batch); err != nil {
		t.Fatal(err)
	}
	want := core.Match(p, truth)
	fresh, err := New(p, truth)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subjects {
		where := where + ", " + s.name + " engine"
		prev := s.e.Result()
		delta := s.e.BatchDelta(batch)
		if s.base != nil {
			if _, err := s.base.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
		}
		got := s.e.Result()
		if !got.Equal(want) {
			t.Fatalf("%s: incremental=%v batch=%v", where, got, want)
		}
		if err := s.e.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !s.e.match.Equal(fresh.match) {
			t.Fatalf("%s: internal match %v, a fresh engine has %v", where, s.e.match, fresh.match)
		}
		if d := rel.DeltaOf(prev, got); !slices.Equal(delta.Removed, d.Removed) || !slices.Equal(delta.Added, d.Added) {
			t.Fatalf("%s: reported delta %v, results differ by %v", where, delta, d)
		}
	}
}

// randomBPattern draws a b-pattern of 2–4 nodes over RandomGraph's alphabet
// with bounds 1, 2, 3 and *; a DAG pattern only has edges from lower to
// higher node numbers, a cyclic one may have any, self-loops included. A
// wide pattern has 63 isolated nodes in front of those, so that its edges
// run between node 63 and nodes 64 and up, across the word boundary.
func randomBPattern(rng *rand.Rand, dag, wide bool) *pattern.Pattern {
	bounds := []int{1, 2, 3, pattern.Unbounded}
	p := pattern.New()
	first, nodes := 0, 2+rng.Intn(3)
	if wide {
		first = 63
	}
	for i := 0; i < first+nodes; i++ {
		p.AddNode(pattern.Label(string(rune('a' + rng.Intn(3)))))
	}
	for tries, edges := 0, 1+rng.Intn(nodes+1); p.NumEdges() < edges && tries < 100; tries++ {
		u, v := first+rng.Intn(nodes), first+rng.Intn(nodes)
		if dag && u >= v {
			continue
		}
		p.AddEdge(u, v, bounds[rng.Intn(len(bounds))]) //nolint:errcheck // in range; a repeat re-bounds the edge
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

// TestRepairIsDeterministicAcrossWorkers: the repair re-measures sources on
// the worker pool but settles them in source order, so the affected-area
// tallies and the reported ΔM must not depend on the worker count — nor on
// the run.
func TestRepairIsDeterministicAcrossWorkers(t *testing.T) {
	var stats []Stats
	var deltas []rel.Delta
	for _, workers := range []int{1, 4, 4} {
		p, g, ups := batch5pctSetup(t)
		e, err := New(p, g, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		d := e.BatchDelta(ups)
		if len(e.scratch.srcs) < fanoutGrain {
			t.Fatalf("only %d affected sources in the last phase: the batch does not reach the fan-out", len(e.scratch.srcs))
		}
		if e.Stats().PairsExamined == 0 {
			t.Fatal("the batch examined nothing")
		}
		stats, deltas = append(stats, e.Stats()), append(deltas, d)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i] != stats[0] {
			t.Fatalf("stats differ: %+v with one worker, %+v with four", stats[0], stats[i])
		}
		if !slices.Equal(deltas[i].Removed, deltas[0].Removed) || !slices.Equal(deltas[i].Added, deltas[0].Added) {
			t.Fatalf("deltas differ: %v with one worker, %v with four", deltas[0], deltas[i])
		}
	}
}
