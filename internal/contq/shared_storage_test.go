package contq

import (
	"runtime"
	"testing"

	"gpm/internal/gdn"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// TestRegistrySharesCanonicalStorage asserts the tentpole structurally:
// every pattern, of every kind, is a handle into the evaluation network,
// which reads the registry's ONE canonical graph and owns no replica.
func TestRegistrySharesCanonicalStorage(t *testing.T) {
	seed := int64(1)
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), seed)
	reg := New(g)
	defer reg.Close()
	for id, kind := range map[string]Kind{"sim": KindSim, "bsim": KindBSim, "iso": KindIso} {
		if err := reg.Register(id, testPattern(g, kind, seed), kind); err != nil {
			t.Fatal(err)
		}
	}
	for id, r := range reg.pats {
		if _, ok := r.m.(*gdn.Handle); !ok {
			t.Fatalf("%s: matcher %T is not a network handle", id, r.m)
		}
	}
	if reg.net.Base() != graph.View(reg.g) {
		t.Fatal("the network does not read the canonical graph")
	}
	// The shared storage must keep serving correct updates.
	ups := generator.Updates(g, 20, 20, seed+5)
	if _, err := reg.Apply(ups); err != nil {
		t.Fatal(err)
	}
}

// TestIsoEngineReadsCanonicalStorage: an iso engine hands out no view of
// its graph, so its sharing is shown by behaviour. An edge put into the
// canonical graph behind the registry's back is one only a reader of that
// graph can know of; the embedding the next commit completes runs over it.
func TestIsoEngineReadsCanonicalStorage(t *testing.T) {
	g := graph.New()
	p := pattern.New()
	for _, l := range []string{"A", "B", "C"} {
		g.AddNode(graph.NewTuple("label", `"`+l+`"`))
		p.AddNode(pattern.Label(l))
	}
	for u := 0; u < 2; u++ {
		if err := p.AddEdge(u, u+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	reg := New(g)
	defer reg.Close()
	if err := reg.Register("path", p, KindIso); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply([]graph.Update{graph.Insert(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if res, _ := reg.Result("path"); res.Size() != 3 {
		t.Fatalf("result %v: the engine did not see the canonical graph's edge (0, 1)", res)
	}
}

// heapInUse forces two GCs and reports live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRegistryMemoryScalesWithPatternState is the acceptance check for the
// memory model: registering P patterns must NOT allocate P graph clones.
// The bar: total growth for P registrations stays under P/2 graph-clone
// footprints (the replica design paid a full clone each, so it could not
// possibly pass), while still leaving generous room for genuine
// per-pattern engine state.
func TestRegistryMemoryScalesWithPatternState(t *testing.T) {
	const nodes, edges, patterns = 20000, 80000, 6
	g := generator.Synthetic(nodes, edges, generator.DefaultSchema(6), 3)

	// Footprint of one graph replica, measured directly.
	before := heapInUse()
	clone := g.Clone()
	cloneBytes := heapInUse() - before
	runtime.KeepAlive(clone)
	clone = nil
	if cloneBytes == 0 {
		t.Skip("GC accounting too coarse on this platform")
	}

	reg := New(g)
	before = heapInUse()
	for i := 0; i < patterns; i++ {
		p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 2, K: 1}, int64(10+i))
		if err := reg.Register(ids(i), p, KindSim); err != nil {
			t.Fatal(err)
		}
	}
	growth := heapInUse() - before
	t.Logf("clone=%d bytes, growth for %d patterns=%d bytes (%.2f clones)",
		cloneBytes, patterns, growth, float64(growth)/float64(cloneBytes))
	if growth > cloneBytes*patterns/2 {
		t.Fatalf("registering %d patterns grew the heap by %d bytes (> %d = %d/2 graph clones): storage is not shared",
			patterns, growth, cloneBytes*patterns/2, patterns)
	}
	reg.Close()
	runtime.KeepAlive(g)
}

func ids(i int) string { return string(rune('a' + i)) }
