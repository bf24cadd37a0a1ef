// Race-detector coverage for the concurrency guarantees of the incremental
// engines: Result() and the other read accessors may be called from any
// number of goroutines while a writer applies updates. Run with
// `go test -race` (the CI default) to make the guarantees meaningful.
package gpm_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"gpm"
	"gpm/internal/generator"
	"gpm/internal/graph"
)

// spawnReaders starts nReaders goroutines hammering the engine's read
// surface until stop flips, and returns a join function.
func spawnReaders(nReaders int, stop *atomic.Bool, read func()) func() {
	var wg sync.WaitGroup
	wg.Add(nReaders)
	for r := 0; r < nReaders; r++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				read()
			}
		}()
	}
	return wg.Wait
}

func TestIncSimEngineConcurrentReaders(t *testing.T) {
	g := generator.Synthetic(80, 320, generator.DefaultSchema(3), 1)
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 1}, 1)
	eng, err := gpm.NewIncSimEngine(p, g)
	if err != nil {
		t.Fatal(err)
	}
	ups := generator.Updates(g, 60, 60, 7)

	var stop atomic.Bool
	join := spawnReaders(4, &stop, func() {
		r := eng.Result()
		_ = r.Size()
		_ = eng.IsMatch(0, 0)
		_ = eng.IsCandidate(1, 1)
		_ = eng.Stats()
	})

	for i, up := range ups {
		switch {
		case i%10 == 9:
			eng.Batch(ups[i : i+1])
		case up.Op == graph.InsertEdge:
			eng.Insert(up.From, up.To)
		default:
			eng.Delete(up.From, up.To)
		}
	}
	stop.Store(true)
	join()
}

func TestIncBSimEngineConcurrentReaders(t *testing.T) {
	g := generator.Synthetic(80, 320, generator.DefaultSchema(3), 2)
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, 2)
	eng, err := gpm.NewIncBSimEngine(p, g)
	if err != nil {
		t.Fatal(err)
	}
	ups := generator.Updates(g, 60, 60, 8)

	var stop atomic.Bool
	join := spawnReaders(4, &stop, func() {
		r := eng.Result()
		_ = r.Size()
		_ = eng.IsMatch(0, 0)
		_ = eng.IsCandidate(1, 1)
		_ = eng.Stats()
		_ = eng.ResultGraph()
	})

	for i, up := range ups {
		switch {
		case i%10 == 9:
			eng.Batch(ups[i : i+1])
		case up.Op == graph.InsertEdge:
			eng.Insert(up.From, up.To)
		default:
			eng.Delete(up.From, up.To)
		}
	}
	stop.Store(true)
	join()
}

// TestIncBSimEngineConcurrentReadersWithLandmarks exercises the same
// read/write interleaving while the writer also maintains a landmark index
// over its own copy of the graph — the engine carries none — and then holds
// the two to each other: a Match through the maintained index must be the
// engine's result.
func TestIncBSimEngineConcurrentReadersWithLandmarks(t *testing.T) {
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), 3)
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, 3)
	lg := g.Clone()
	ix := gpm.NewLandmarkIndex(lg)
	eng, err := gpm.NewIncBSimEngine(p, g)
	if err != nil {
		t.Fatal(err)
	}
	ups := generator.Updates(g, 40, 40, 9)

	var stop atomic.Bool
	join := spawnReaders(3, &stop, func() {
		_ = eng.Result().Size()
		_ = eng.Stats()
	})

	for _, up := range ups {
		if up.Op == graph.InsertEdge {
			eng.Insert(up.From, up.To)
			ix.Insert(up.From, up.To)
		} else {
			eng.Delete(up.From, up.To)
			ix.Delete(up.From, up.To)
		}
	}
	stop.Store(true)
	join()
	if want := gpm.MatchWithOracle(p, lg, ix); !eng.Result().Equal(want) {
		t.Fatalf("engine result %v, Match over the maintained landmark index %v", eng.Result(), want)
	}
}
