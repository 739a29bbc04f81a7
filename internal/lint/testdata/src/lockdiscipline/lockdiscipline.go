// Fixture for the lockdiscipline analyzer.
package lockdiscipline

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Locked access participates in the protocol: fine.
func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Unlocked read of a guarded field.
func (c *counter) Peek() int {
	return c.n // want "guarded by c.mu, but this function never locks it"
}

// Freshly allocated value: no other goroutine can hold it yet.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}

// A reviewed suppression waives the finding.
func peekSuppressed(c *counter) int {
	//vdce:ignore lockdiscipline fixture: every caller holds c.mu
	return c.n
}

// An annotation naming a mutex the struct does not have is a finding.
type broken struct {
	data int // guarded by missing // want "no sync.Mutex/RWMutex field named"
}
