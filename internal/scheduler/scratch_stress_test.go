package scheduler

// Pool-correctness stress: every registered policy scheduling a batch of
// graphs concurrently, all drawing scratch from the one shared sync.Pool,
// must produce tables identical to fresh-allocation runs (scratchPoolOff).
// Under -race this is also the data-race proof for the arena: buffers are
// function-scoped, so two goroutines must never see the same scratch.
//
// The ledger policy runs its batch at Workers=1 in BOTH runs — its tables
// legitimately depend on completion order under concurrency (see Batch),
// which is a determinism property of the policy, not of the pool.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/afg"
)

func TestScratchPoolStressEquivalence(t *testing.T) {
	req, _, _ := equivEnv(t, 11)
	const nGraphs = 6
	graphs := make([]*afg.Graph, nGraphs)
	for i := range graphs {
		graphs[i] = equivGraph(t, 120, 10, int64(500+i*7))
	}
	// The nine production policies, pinned explicitly: Policies() would
	// also pick up stubs other tests register into the global registry.
	names := []string{
		"faithful", "eft", "ledger", "heft", "cpop",
		"random", "roundrobin", "minload", "fastest",
	}

	// run schedules every policy's batch concurrently (one goroutine per
	// policy, Workers inside each batch) and returns tables[policy][graph].
	run := func(workers int) map[string][]*AllocationTable {
		out := make(map[string][]*AllocationTable, len(names))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, name := range names {
			w := workers
			if name == "ledger" {
				w = 1
			}
			wg.Add(1)
			go func(name string, w int) {
				defer wg.Done()
				p, err := Lookup(name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				items := (&Batch{Policy: p, Env: *req, Workers: w}).Schedule(graphs)
				tables := make([]*AllocationTable, len(items))
				for i, it := range items {
					if it.Err != nil {
						t.Errorf("%s graph %d: %v", name, i, it.Err)
						return
					}
					tables[i] = it.Table
				}
				mu.Lock()
				out[name] = tables
				mu.Unlock()
			}(name, w)
		}
		wg.Wait()
		return out
	}

	// Reference first, with recycling disabled: every schedule call gets
	// fresh allocations. scratchPoolOff is written before any scheduling
	// goroutine starts and restored after they all join.
	scratchPoolOff = true
	want := run(4)
	scratchPoolOff = false
	got := run(4)
	if t.Failed() {
		t.Fatal("scheduling failed; skipping table comparison")
	}
	for _, name := range names {
		for i := range graphs {
			tablesEqual(t, fmt.Sprintf("%s graph %d pooled-vs-fresh", name, i), got[name][i], want[name][i])
		}
	}
}
