package incbsim

import (
	"reflect"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
)

// TestDeltaEquivalence replays random update streams and checks, after
// every unit update, that the reported ΔM applied to the old visible
// result reproduces the new visible result exactly.
func TestDeltaEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := generator.Synthetic(100, 400, generator.DefaultSchema(3), seed)
		p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, seed)
		e, err := New(p, g)
		if err != nil {
			t.Fatal(err)
		}
		acc := e.Result().Clone()
		for _, up := range generator.Updates(g, 40, 40, seed+10) {
			if up.Op == graph.InsertEdge {
				_, d := e.InsertDelta(up.From, up.To)
				d.Apply(acc)
			} else {
				_, d := e.DeleteDelta(up.From, up.To)
				d.Apply(acc)
			}
			if !acc.Equal(e.Result()) {
				t.Fatalf("seed %d: accumulated deltas diverge from Result() after %v", seed, up)
			}
		}
	}
}

// TestBatchDeltaEquivalence checks the batch path: one ΔM per batch
// applied to the pre-batch result equals the post-batch result.
func TestBatchDeltaEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := generator.Synthetic(100, 400, generator.DefaultSchema(3), seed)
		p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, seed)
		e, err := New(p, g)
		if err != nil {
			t.Fatal(err)
		}
		ups := generator.Updates(g, 30, 30, seed+20)
		for i := 0; i < len(ups); i += 10 {
			end := i + 10
			if end > len(ups) {
				end = len(ups)
			}
			before := e.Result().Clone()
			d := e.BatchDelta(ups[i:end])
			d.Apply(before)
			if !before.Equal(e.Result()) {
				t.Fatalf("seed %d: batch delta diverges from Result() at chunk %d", seed, i)
			}
		}
	}
}

// TestResultSnapshotCached verifies Result() returns the same cached
// snapshot between writes and stays correct across them.
func TestResultSnapshotCached(t *testing.T) {
	g := generator.Synthetic(60, 240, generator.DefaultSchema(3), 1)
	p := generator.EmbeddedPattern(g, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, 1)
	e, err := New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	r1 := e.Result()
	r2 := e.Result()
	if reflect.ValueOf(r1).Pointer() != reflect.ValueOf(r2).Pointer() {
		t.Fatal("Result() re-allocated between writes")
	}
	e.Batch(generator.Updates(g, 5, 5, 2))
	if !e.Result().Equal(e.Result()) {
		t.Fatal("post-write snapshot unstable")
	}
}

// TestParallelInsertSweepEquivalence replays an insertion-heavy stream
// through a serial and a parallel engine and demands identical matches
// after every unit update, with invariants intact — the insertion-sweep
// mirror of TestParallelDeleteRepairEquivalence.
func TestParallelInsertSweepEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g1 := generator.Synthetic(120, 360, generator.DefaultSchema(3), seed)
		g2 := g1.Clone()
		p := generator.EmbeddedPattern(g1, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, seed)
		serial, err := New(p, g1, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := New(p, g2, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range generator.Updates(g1, 80, 10, seed+40) {
			if up.Op == graph.InsertEdge {
				serial.Insert(up.From, up.To)
				parallel.Insert(up.From, up.To)
			} else {
				serial.Delete(up.From, up.To)
				parallel.Delete(up.From, up.To)
			}
			if !serial.Result().Equal(parallel.Result()) {
				t.Fatalf("seed %d: after %v parallel result differs from serial", seed, up)
			}
			if err := parallel.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: after %v: %v", seed, up, err)
			}
		}
		if s, p2 := serial.Stats(), parallel.Stats(); s != p2 {
			t.Fatalf("seed %d: stats diverge: serial %+v parallel %+v", seed, s, p2)
		}
	}
}

// TestMatrixEngineResultFreshAfterBatch is a regression test: a Result()
// call before Batch primes the cached snapshot, and the batch (which goes
// through MatrixEngine's own repair path, not the Engine wrappers) must
// invalidate it rather than serve pre-batch results.
func TestMatrixEngineResultFreshAfterBatch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g1 := generator.Synthetic(80, 320, generator.DefaultSchema(3), seed)
		g2 := g1.Clone()
		p := generator.EmbeddedPattern(g1, generator.PatternParams{Nodes: 3, Edges: 3, Preds: 1, K: 2}, seed)
		m, err := NewMatrix(p, g1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(p, g2)
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Result() // prime the cache
		ups := generator.Updates(g1, 25, 25, seed+90)
		m.Batch(ups)
		e.Batch(ups)
		if !m.Result().Equal(e.Result()) {
			t.Fatalf("seed %d: MatrixEngine served a stale cached result after Batch", seed)
		}
	}
}
