package a

import "sync"

type R struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (r *R) bumpLocked() { r.n++ }

func (r *R) snapshotLocked() int { return r.n }

// Held via Lock + deferred Unlock: the canonical shape.
func (r *R) Bump() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpLocked()
}

// Held via RLock: read locks satisfy the convention too.
func (r *R) Snapshot() int {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return r.snapshotLocked()
}

// A *Locked caller may call further *Locked functions freely.
func (r *R) doubleLocked() {
	r.bumpLocked()
	r.bumpLocked()
}

// Inline Lock/Unlock around the call is fine.
func (r *R) BumpInline() {
	r.mu.Lock()
	r.bumpLocked()
	r.mu.Unlock()
}

// No lock anywhere in sight.
func (r *R) BumpUnsafe() {
	r.bumpLocked() // want "call to bumpLocked without holding r's mutex"
}

// The lock was already released when the call runs.
func (r *R) BumpAfterUnlock() {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
	r.bumpLocked() // want "call to bumpLocked without holding r's mutex"
}

// A deferred *Locked call with no lock held is still judged.
func (r *R) BumpDeferred() {
	defer r.bumpLocked() // want "call to bumpLocked without holding r's mutex"
}

// commitInner runs under a lock its caller takes, and is allowlisted by
// the test via -lockcheck.allow.
func (r *R) commitInner() {
	r.bumpLocked()
	r.snapshotLocked()
}

// Calls covered by the escape hatch are suppressed and counted.
func (r *R) BumpIgnored() {
	r.bumpLocked() //gpmvet:ignore held transitively via Drain's writeMu
}

// A different receiver's lock does not cover this receiver.
func (r *R) BumpOther(other *R) {
	other.mu.Lock()
	defer other.mu.Unlock()
	r.bumpLocked() // want "call to bumpLocked without holding r's mutex"
}
