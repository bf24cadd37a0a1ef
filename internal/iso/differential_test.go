package iso

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// A failing case of TestDifferentialIncIso names its seed; replay it with
// `go test ./internal/iso -run TestDifferentialIncIso -iso.seed N` (any other
// seed explores a case outside the fixed list).
var differentialSeed = flag.Int64("iso.seed", 0, "run TestDifferentialIncIso on this one seed")

// TestDifferentialIncIso holds IncIsoMat to the brute-force enumeration:
// small random graphs with self-loops and some labeled edges × triangles,
// 4-cycles, disconnected, edgeless, self-loop and random patterns (some
// with a colored edge) × mixed batches of 1, 4, 8 and 25 % of |E| with
// duplicate and self-cancelling updates, on an owned engine and a shared
// one (overlay reset by the write, base committed between batches). After
// every batch each engine's embeddings must be the brute-force set (which
// has no duplicates, so neither may the engine's), Count its size, Result
// its pair projection, and the reported ΔM the difference between
// consecutive results.
func TestDifferentialIncIso(t *testing.T) {
	seeds := make([]int64, 300)
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

func differential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(6)
	truth := graph.New()
	for i := 0; i < n; i++ {
		truth.AddNode(graph.NewTuple("label", fmt.Sprintf("%q", string(rune('a'+rng.Intn(2))))))
	}
	for i := n * (2 + rng.Intn(3)); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(6) == 0 {
			v = u
		}
		label := ""
		if rng.Intn(3) == 0 {
			label = "x"
		}
		truth.AddLabeledEdge(u, v, label) //nolint:errcheck // in range; a repeat keeps the edge
	}
	p := randomIsoPattern(rng, seed)

	base := truth.Clone()
	subjects := []struct {
		name string
		e    *Engine
		base *graph.Graph // shared mode: the base the test commits to
	}{{"owned", NewEngine(p, truth.Clone()), nil}, {"shared", NewEngineShared(p, base), base}}

	for round := 0; round < 3; round++ {
		for _, size := range []int{1, 4, 8, max(1, truth.NumEdges()/4)} {
			batch := mixedBatch(rng, truth, size)
			where := fmt.Sprintf("seed %d, round %d, batch of %d", seed, round, size)
			if _, err := truth.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
			want := enumerateBrute(p, truth)
			for _, s := range subjects {
				where := where + ", " + s.name + " engine"
				prev := s.e.Result()
				delta := s.e.BatchDelta(batch)
				if s.base != nil {
					if _, err := s.base.ApplyAll(batch); err != nil {
						t.Fatal(err)
					}
				}
				got := s.e.Embeddings()
				sortEmbeddings(got)
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%s: embeddings %v, brute force %v", where, got, want)
				}
				if s.e.Count() != len(want) {
					t.Fatalf("%s: Count %d, %d embeddings", where, s.e.Count(), len(want))
				}
				res := s.e.Result()
				if proj := projection(p.NumNodes(), want); !res.Equal(proj) {
					t.Fatalf("%s: Result %v, projection %v", where, res, proj)
				}
				if d := rel.DeltaOf(prev, res); !slices.Equal(delta.Removed, d.Removed) || !slices.Equal(delta.Added, d.Added) {
					t.Fatalf("%s: reported delta %v, results differ by %v", where, delta, d)
				}
			}
		}
	}
}

// randomIsoPattern draws a pattern over the graph's alphabet, its shape
// chosen by seed: a triangle, a 4-cycle, a disconnected pattern, an
// edgeless one, one with a self-loop, or a random one of 2–4 nodes. About
// one in three has a colored edge.
func randomIsoPattern(rng *rand.Rand, seed int64) *pattern.Pattern {
	shapes := [][][2]int{
		{{0, 1}, {1, 2}, {2, 0}},
		{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
		{{0, 1}, {2, 3}},
		{},
		{{0, 0}, {0, 1}, {1, 2}},
		nil,
	}
	edges := shapes[seed%int64(len(shapes))]
	nodes := 1
	for _, e := range edges {
		nodes = max(nodes, e[0]+1, e[1]+1)
	}
	if edges == nil {
		nodes = 2 + rng.Intn(3)
		for i := rng.Intn(nodes + 2); i >= 0; i-- {
			edges = append(edges, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
		}
	} else if len(edges) == 0 {
		nodes = 2 + rng.Intn(2)
	}
	colored := rng.Intn(3) == 0
	p := pattern.New()
	for i := 0; i < nodes; i++ {
		p.AddNode(pattern.Label(string(rune('a' + rng.Intn(2)))))
	}
	for i, e := range edges {
		color := ""
		if i == 0 && colored {
			color = "x"
		}
		p.AddColoredEdge(e[0], e[1], 1, color) //nolint:errcheck // in range; a repeat keeps the edge
	}
	return p
}

// mixedBatch draws size updates against g, about half deletions of present
// edges and half insertions of random pairs (present ones and self-loops
// included), and salts them with repeats of earlier updates and with
// insert/delete pairs of one edge in either order.
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

// projection is the union of ems projected to (pattern node, data node)
// pairs.
func projection(np int, ems []Embedding) rel.Relation {
	r := rel.NewRelation(np)
	for _, em := range ems {
		for u, v := range em {
			r[u].Add(v)
		}
	}
	return r
}
