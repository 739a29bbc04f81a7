package datamgr

import (
	"context"
	"sync"
	"sync/atomic"
)

// Gate implements the VDCE console service: "the user can suspend and
// restart the application execution with the console service" (§2.3.2).
// Task executors call Wait before starting each task; Pause blocks them,
// Resume releases them.
type Gate struct {
	paused atomic.Bool // written under mu, read by Wait without it
	mu     sync.Mutex
	ch     chan struct{} // closed when running; replaced when paused
}

// NewGate returns a gate in the running state.
func NewGate() *Gate {
	ch := make(chan struct{})
	close(ch)
	return &Gate{ch: ch}
}

// Pause suspends execution: subsequent Wait calls block.
func (g *Gate) Pause() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.paused.Load() {
		g.ch = make(chan struct{})
		g.paused.Store(true)
	}
}

// Resume releases all waiters.
func (g *Gate) Resume() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.paused.Load() {
		g.paused.Store(false)
		close(g.ch)
	}
}

// Paused reports the current state.
func (g *Gate) Paused() bool { return g.paused.Load() }

// Wait blocks while the gate is paused, or until ctx is done. A gate that
// is not paused returns at once, without the lock or a select.
func (g *Gate) Wait(ctx context.Context) error {
	if !g.paused.Load() {
		return nil
	}
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
