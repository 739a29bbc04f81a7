// Fixture for the lockorder analyzer: a two-class cycle closed through a
// call, a transitive self-acquisition, a cycle through an embedded mutex,
// and the clean shapes — a fixed global order and the early-return branch
// that releases via defer.
package lockorder

import "sync"

type A struct {
	mu sync.Mutex
	n  int // guarded by mu
}

type B struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// lockB acquires B on its own: fine in isolation.
func lockB(b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// aThenB acquires B (through lockB) while holding A.
func aThenB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockB(b) // want "lock-order cycle"
	a.n++
}

// bThenA takes the locks in the reverse order, closing the A↔B cycle.
func bThenA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

type C struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *C) bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// badNested re-enters the class it already holds: sync.Mutex is not
// reentrant, and two instances of one class can be locked in either order
// from concurrent goroutines.
func badNested(c *C) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump() // want "lock-order cycle"
}

type D struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// ordered nests two classes in one fixed order only: an edge, not a cycle.
func ordered(a *A, d *D) {
	a.mu.Lock()
	d.mu.Lock()
	d.n++
	d.mu.Unlock()
	a.mu.Unlock()
}

type E struct {
	mu  sync.RWMutex
	val int // guarded by mu
}

// get's early-return branch takes and releases the lock via defer; the
// fallthrough acquisition must not be mistaken for a nested one.
func (e *E) get(fast bool) int {
	if fast {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.val
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.val * 2
}

// F embeds its mutex: f.Lock() is promoted through the embedded field, so
// its class is lockorder.F.Mutex.
type F struct {
	sync.Mutex
	n int
}

// fThenD and dThenF nest the embedded class and D's in opposite orders.
func fThenD(f *F, d *D) {
	f.Lock()
	d.mu.Lock()
	d.n++
	d.mu.Unlock()
	f.Unlock()
}

func dThenF(f *F, d *D) {
	d.mu.Lock()
	f.Lock() // want "lock-order cycle \(potential deadlock\) among \{lockorder.D.mu, lockorder.F.Mutex\}"
	f.n++
	f.Unlock()
	d.mu.Unlock()
}
