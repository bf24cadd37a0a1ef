package iso

import (
	"sync"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// TestSharedEngineMatchesOwned drives an owned engine and a shared engine
// with identical unit-update streams; after each batch the shared base is
// committed (Commit + base apply), and the embedding sets must agree with
// each other and with a fresh enumeration of the final graph.
func TestSharedEngineMatchesOwned(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := generator.Synthetic(40, 120, generator.DefaultSchema(3), seed)
		p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 2, Preds: 1, K: 1}, seed)
		base := g.Clone()
		owned := NewEngine(p, g.Clone())
		shared := NewEngineShared(p, base)
		if shared.ov.Base() != graph.View(base) {
			t.Fatal("shared engine must read through the base it was given")
		}
		if owned.Count() != shared.Count() {
			t.Fatalf("seed %d: initial counts diverge", seed)
		}

		ups := generator.Updates(g, 20, 20, seed+40)
		for i := 0; i < len(ups); i += 5 {
			end := min(i+5, len(ups))
			batch := ups[i:end]
			for _, up := range batch {
				if up.Op == graph.InsertEdge {
					_, a := owned.InsertDelta(up.From, up.To)
					_, b := shared.InsertDelta(up.From, up.To)
					if len(a) != len(b) {
						t.Fatalf("seed %d: insert deltas diverge at %v", seed, up)
					}
				} else {
					_, a := owned.DeleteDelta(up.From, up.To)
					_, b := shared.DeleteDelta(up.From, up.To)
					if len(a) != len(b) {
						t.Fatalf("seed %d: delete deltas diverge at %v", seed, up)
					}
				}
			}
			// End of batch: discard the shared overlay, commit to the base.
			shared.Commit()
			if _, err := base.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
			if !sameEmbeddings(owned.Embeddings(), shared.Embeddings()) {
				t.Fatalf("seed %d: embedding sets diverge after batch %d", seed, i)
			}
		}
		if !sameEmbeddings(Enumerate(p, base, 0), shared.Embeddings()) {
			t.Fatalf("seed %d: shared engine diverges from fresh enumeration", seed)
		}
	}
}

// TestReadersDuringWrites runs Result, Count and Embeddings beside a
// writer's BatchDelta calls (meant for -race); afterwards Result is still
// the projection of the embeddings.
func TestReadersDuringWrites(t *testing.T) {
	g := generator.RandomGraph(30, 120, 2, 7)
	p := pattern.New()
	for _, l := range []string{"a", "b", "a"} {
		p.AddNode(pattern.Label(l))
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := p.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	ups := generator.Updates(g, 10, 10, 9)
	inv := inverse(ups)
	e := NewEngine(p, g)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.Result().Size()
				e.Count()
				e.Embeddings()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		e.BatchDelta(ups)
		e.BatchDelta(inv)
	}
	close(stop)
	wg.Wait()
	if proj := projection(p.NumNodes(), e.Embeddings()); !e.Result().Equal(proj) {
		t.Fatalf("Result %v, projection of the embeddings %v", e.Result(), proj)
	}
}
