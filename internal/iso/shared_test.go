package iso

import (
	"sort"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
)

func sortedKeys(ems []Embedding) []string {
	keys := make([]string, 0, len(ems))
	for _, em := range ems {
		keys = append(keys, em.Key())
	}
	sort.Strings(keys)
	return keys
}

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
			ka, kb := sortedKeys(owned.Embeddings()), sortedKeys(shared.Embeddings())
			if len(ka) != len(kb) {
				t.Fatalf("seed %d: embedding sets diverge after batch %d", seed, i)
			}
			for j := range ka {
				if ka[j] != kb[j] {
					t.Fatalf("seed %d: embedding sets diverge after batch %d", seed, i)
				}
			}
		}
		fresh := sortedKeys(Enumerate(p, base, 0))
		got := sortedKeys(shared.Embeddings())
		if len(fresh) != len(got) {
			t.Fatalf("seed %d: shared engine has %d embeddings, fresh enumeration %d", seed, len(got), len(fresh))
		}
		for j := range fresh {
			if fresh[j] != got[j] {
				t.Fatalf("seed %d: shared engine diverges from fresh enumeration", seed)
			}
		}
	}
}
