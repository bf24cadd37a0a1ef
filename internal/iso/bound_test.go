package iso

import (
	"runtime"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// TestBatchAllocIndependentOfGraphSize: an 8-update batch and its inverse,
// committed to a triangle engine over a 1× and a 16× graph
// (generator.Synthetic(n, 4n), n = 1 250 and 20 000), allocate per batch
// at 16× at most twice what they do at 1×. An anchored search walks out
// from the updated edge, so nothing it allocates may scale with |V|.
func TestBatchAllocIndependentOfGraphSize(t *testing.T) {
	p := pattern.New()
	for _, l := range []string{"L1", "L2", "L3"} {
		p.AddNode(pattern.Label(l))
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := p.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	perBatch := func(n int) float64 {
		g := generator.Synthetic(n, 4*n, generator.DefaultSchema(5), 1)
		ups := generator.Updates(g, 4, 4, 2)
		inv := inverse(ups)
		e := NewEngine(p, g)
		e.Apply(ups) // the first round grows the engine's tables
		e.Apply(inv)
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			e.Apply(ups)
			e.Apply(inv)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (2 * rounds)
	}
	small, large := perBatch(1250), perBatch(20000)
	t.Logf("bytes per batch: %.0f at n = 1 250, %.0f at n = 20 000", small, large)
	if large > 2*small {
		t.Fatalf("a batch allocates %.0f bytes at n = 20 000 and %.0f at n = 1 250: per-batch work scales with |V|", large, small)
	}
}

// inverse is the batch that undoes ups.
func inverse(ups []graph.Update) []graph.Update {
	inv := make([]graph.Update, len(ups))
	for i, up := range ups {
		inv[len(ups)-1-i] = up.Inverse()
	}
	return inv
}
