package datamgr

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
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

// IOService provides the paper's I/O service: "either file I/O or URL I/O
// for the inputs of the application tasks".
type IOService struct {
	// Client serves URL I/O; nil uses http.DefaultClient. Tests inject a
	// stub; real deployments reach site-local HTTP repositories.
	Client *http.Client
	// MaxBytes caps one input (0 = 64 MiB).
	MaxBytes int64
}

// ReadInput fetches the bytes behind a task-input reference:
//
//	file://<path> or a bare path — local file I/O
//	http://...                   — URL I/O
//	data:<literal>               — inline literal (testing convenience)
func (s *IOService) ReadInput(uri string) ([]byte, error) {
	limit := s.MaxBytes
	if limit <= 0 {
		limit = 64 << 20
	}
	switch {
	case strings.HasPrefix(uri, "data:"):
		return []byte(strings.TrimPrefix(uri, "data:")), nil
	case strings.HasPrefix(uri, "http://"), strings.HasPrefix(uri, "https://"):
		client := s.Client
		if client == nil {
			client = http.DefaultClient
		}
		resp, err := client.Get(uri)
		if err != nil {
			return nil, fmt.Errorf("datamgr: url input %s: %w", uri, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("datamgr: url input %s: status %s", uri, resp.Status)
		}
		return readCapped(resp.Body, limit)
	default:
		path := strings.TrimPrefix(uri, "file://")
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("datamgr: file input: %w", err)
		}
		defer f.Close()
		return readCapped(f, limit)
	}
}

func readCapped(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("datamgr: input exceeds %d byte limit", limit)
	}
	return data, nil
}
