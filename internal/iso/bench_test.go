package iso

import (
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// BenchmarkIncIsoMatBatch drives IncIsoMat with an 8-update batch and its
// inverse over the repo benchmark's engine-unit shape (n=2000, m=8000, 5
// labels, a 3-node path), owned and shared; the shared base's commit runs
// off the clock.
func BenchmarkIncIsoMatBatch(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "owned"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			g := generator.Synthetic(2000, 8000, generator.DefaultSchema(5), 1)
			p := pattern.New()
			for _, l := range []string{"L1", "L2", "L3"} {
				p.AddNode(pattern.Label(l))
			}
			for _, e := range [][2]int{{0, 1}, {1, 2}} {
				if err := p.AddEdge(e[0], e[1], 1); err != nil {
					b.Fatal(err)
				}
			}
			ups := generator.Updates(g, 4, 4, 2)
			inv := inverse(ups)
			e := NewEngine(p, g)
			if shared {
				e = NewEngineShared(p, g)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range [][]graph.Update{ups, inv} {
					e.Apply(batch)
					if shared {
						b.StopTimer()
						g.ApplyAll(batch) //nolint:errcheck
						b.StartTimer()
					}
				}
			}
		})
	}
}
