package scheduler

import (
	"sync"
	"testing"
)

// The striped ledger must keep per-host totals exact under concurrent
// Reserve/Release/Busy traffic (run with -race in CI).
func TestLedgerConcurrentReserveRelease(t *testing.T) {
	l := NewLoadLedger()
	hosts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const workers = 8
	const rounds = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := hosts[(w+r)%len(hosts)]
				l.Reserve(h, 2)
				_ = l.Busy(h)
				l.Release(h, 1)
			}
		}(w)
	}
	wg.Wait()
	// Every round leaves +1 second behind: workers × rounds total.
	var total float64
	for _, h := range hosts {
		total += l.Busy(h)
	}
	if total != workers*rounds {
		t.Fatalf("concurrent traffic lost reservations: total %v, want %v", total, workers*rounds)
	}
}
