package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, n := range []int{0, 1, 3, 100, 1000} {
			hits := make([]int32, n)
			For(n, workers, func(worker, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForWorkerIDsDense(t *testing.T) {
	n, workers := 1000, 4
	w := Resolve(workers, n)
	seen := make([]int32, w)
	For(n, workers, func(worker, i int) {
		if worker < 0 || worker >= w {
			t.Errorf("worker id %d out of range [0,%d)", worker, w)
			return
		}
		atomic.StoreInt32(&seen[worker], 1)
	})
}

func TestForSerialRunsInline(t *testing.T) {
	order := make([]int, 0, 5)
	For(5, 1, func(worker, i int) {
		if worker != 0 {
			t.Fatalf("serial worker id = %d", worker)
		}
		order = append(order, i) // safe: single worker runs inline
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestForPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	For(100, 4, func(worker, i int) {
		if i == 42 {
			panic("boom")
		}
	})
}

func TestResolve(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{4, 100, 4},
		{4, 2, 2},
		{1, 100, 1},
		{8, 0, 1},
		{-1, 5, min(DefaultWorkers(), 5)},
	}
	for _, c := range cases {
		if got := Resolve(c.workers, c.n); got != c.want {
			t.Errorf("Resolve(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers() = %d after SetDefaultWorkers(3)", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers() = %d after reset", got)
	}
}
