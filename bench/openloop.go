package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// maxInFlight bounds the open loop's concurrent ops. It is far above what
// the paced phase needs at its rate; when the system stalls long enough to
// reach it the dispatcher waits, and the wait shows as lateness.
const maxInFlight = 256

// openLoop sends op i at start + i/rate whether or not earlier ops have
// completed, for dur, and returns every op's record. Independent users make
// an open loop: a slow system receives the same load and its queue grows.
// send must stamp the record's due, start and end; latency is then counted
// from due, and start − due is how late the generator itself ran.
func openLoop(rate float64, dur time.Duration, inFlight int, send func(due time.Time) opRec) []opRec {
	var (
		mu   sync.Mutex
		recs []opRec
		wg   sync.WaitGroup
	)
	sem := make(chan struct{}, inFlight) // counting semaphore
	start := time.Now()
	for i := 0; ; i++ {
		offset := time.Duration(float64(i) / rate * float64(time.Second))
		if offset >= dur {
			break
		}
		due := start.Add(offset)
		sleepUntil(due)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := send(due)
			<-sem
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		}()
		// Let the sender run now, on this processor, not when the
		// scheduler finds it after this goroutine has gone to sleep.
		runtime.Gosched()
	}
	wg.Wait()
	return recs
}

// sleepUntil returns at t, not up to a millisecond after it: the runtime's
// timers wake that late once the process goes idle, which at the paced rate
// is as long as the round trip being measured. The kernel's own sleep is
// good to about 0.1 ms and burns no CPU that the servers need; the last
// stretch is a yielding loop.
func sleepUntil(t time.Time) {
	const slack = 150 * time.Microsecond
	if wait := time.Until(t); wait > slack {
		ts := syscall.NsecToTimespec(int64(wait - slack))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early return is caught by the loop below
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
