package scheduler

import (
	"sync"
	"testing"
)

// A view absorbs its own writes without re-snapshotting, and picks up
// foreign writes on the next Refresh.
func TestLedgerViewTracksOwnAndForeignWrites(t *testing.T) {
	l := NewLoadLedger()
	l.Reserve("a", 2)
	v := l.View()
	v.Refresh()
	if got := v.Busy("a"); got != 2 {
		t.Fatalf("Busy(a) = %v, want 2", got)
	}

	// Own write: visible immediately, no staleness.
	v.Reserve("a", 3)
	if got := v.Busy("a"); got != 5 {
		t.Fatalf("after own Reserve: Busy(a) = %v, want 5", got)
	}
	v.Refresh()
	if got := v.Busy("a"); got != 5 {
		t.Fatalf("after Refresh: Busy(a) = %v, want 5", got)
	}

	// Foreign write: invisible until the next Refresh, then picked up.
	l.Reserve("b", 7)
	if got := v.Busy("b"); got != 0 {
		t.Fatalf("foreign write leaked into stale view: Busy(b) = %v", got)
	}
	v.Refresh()
	if got := v.Busy("b"); got != 7 {
		t.Fatalf("Refresh missed the foreign write: Busy(b) = %v, want 7", got)
	}
	if got := l.Busy("a"); got != 5 {
		t.Fatalf("ledger Busy(a) = %v, want 5", got)
	}
}

// Version advances on every mutation and is stable across reads.
func TestLedgerVersionAdvancesOnMutation(t *testing.T) {
	l := NewLoadLedger()
	v0 := l.version.Load()
	l.Reserve("a", 1)
	if l.version.Load() == v0 {
		t.Fatal("Reserve did not advance the version")
	}
	v1 := l.version.Load()
	_ = l.Busy("a")
	l.View().Refresh()
	if l.version.Load() != v1 {
		t.Fatal("reads advanced the version")
	}
	l.Release("a", 1)
	if l.version.Load() == v1 {
		t.Fatal("Release did not advance the version")
	}
}

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
