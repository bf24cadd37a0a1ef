// Package par provides the bounded concurrency primitives shared by the
// hot paths of this repository: a process-wide default worker count, a
// parallel-for over dense index ranges with stable worker identities (so
// callers can keep per-worker scratch buffers, the pattern every BFS-heavy
// loop needs).
//
// For is deliberately synchronous: a call returns only after every unit of
// work has finished, so callers never have to reason about task lifetimes.
// Panics raised inside workers are captured and re-raised on the calling
// goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide default (0 means "use GOMAXPROCS").
var defaultWorkers atomic.Int64

// DefaultWorkers returns the default degree of parallelism: the value set
// by SetDefaultWorkers, or GOMAXPROCS when unset.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers sets the process-wide default degree of parallelism
// used when a caller passes workers <= 0. Passing n <= 0 resets to
// GOMAXPROCS. CLI front-ends wire their -workers flag here.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Resolve normalizes a caller-supplied worker count against a range of n
// work items: workers <= 0 means the default, and the result never exceeds
// n (spawning more goroutines than items is pure overhead) and never drops
// below 1.
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// chunksPerWorker controls the dynamic-scheduling granularity of For:
// enough chunks per worker that skewed item costs (one giant BFS among
// many small ones) balance out, few enough that the atomic fetch-add is
// amortized.
const chunksPerWorker = 8

// For runs body(worker, i) for every i in [0, n), distributing indices
// across at most `workers` goroutines (workers <= 0 selects the default).
// Worker ids are dense in [0, Resolve(workers, n)), so callers can index
// per-worker scratch allocated with that bound. Chunks are handed out
// dynamically, which keeps the load balanced when item costs are skewed.
// With one worker (or one item) the body runs inline on the caller.
//
// The body must treat distinct indices as independent: For gives no
// ordering guarantee between them.
func For(n, workers int, body func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	chunk := n / (w * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[panicValue]
	)
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(worker int) {
			defer wg.Done()
			defer capturePanic(&panicked)
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					body(worker, i)
				}
			}
		}(wk)
	}
	wg.Wait()
	rethrow(&panicked)
}

// panicValue boxes a recovered panic so it can travel through an atomic
// pointer (recover() may legitimately return any non-nil value).
type panicValue struct{ v any }

func capturePanic(slot *atomic.Pointer[panicValue]) {
	if r := recover(); r != nil {
		slot.CompareAndSwap(nil, &panicValue{r})
	}
}

func rethrow(slot *atomic.Pointer[panicValue]) {
	if pv := slot.Swap(nil); pv != nil {
		panic(pv.v)
	}
}
