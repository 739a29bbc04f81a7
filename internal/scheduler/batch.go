package scheduler

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/afg"
)

// BatchItem is one application's outcome within a batch: either its
// allocation table or the error that stopped its scheduling. Exactly one of
// Table/Err is set.
type BatchItem struct {
	Graph *afg.Graph
	Table *AllocationTable
	Err   error
}

// Batch schedules many application flow graphs concurrently against shared
// site state. The policy is invoked from multiple goroutines at once, which
// is safe for every registered policy: their per-run state is local, and
// the repositories, network model, pricing counters and load ledger are all
// concurrency-safe.
//
// Results come back in input order regardless of completion order, and —
// without a shared ledger — the tables are independent of the worker count
// too (every policy, round-robin included, starts each graph from scratch).
type Batch struct {
	// Policy maps one AFG to resources.
	Policy Policy
	// Env is the environment every graph is scheduled against: selectors,
	// network, Config. Its Graph field is ignored. A non-nil
	// Env.Config.Ledger is the shared cross-application load ledger
	// threaded through every Schedule call (forcing availability-aware
	// placement for the site policies). Every policy that places through
	// the earliest-finish kernel — eft, ledger, heft, cpop — reads it live,
	// per candidate host, and reserves each commit in it: each graph's walk
	// sees the predicted busy time the batch's other graphs have placed per
	// host so far, so the batch spreads instead of every graph dog-piling
	// the same machines. The resulting tables then depend on completion
	// order when Workers > 1 — cross-application awareness trades away the
	// ledger-free mode's worker-count invariance.
	Env Request
	// Workers bounds concurrent Schedule calls (0 = GOMAXPROCS, 1 =
	// serial — the baseline the scale benchmark compares against).
	Workers int
}

// Schedule maps every graph and returns one item per input, in input order.
func (b *Batch) Schedule(graphs []*afg.Graph) []BatchItem {
	items := make([]BatchItem, len(graphs))
	env := b.Env
	// The "ledger" policy exists to share placements ACROSS a batch;
	// without a caller-supplied ledger it is plain eft, so the batch
	// supplies the shared one itself.
	if env.Config.Ledger == nil && b.Policy.Name() == "ledger" {
		env.Config.Ledger = NewLoadLedger()
	}
	schedule := func(i int) {
		req := env
		req.Graph = graphs[i]
		items[i].Graph = graphs[i]
		items[i].Table, items[i].Err = b.Policy.Schedule(context.Background(), &req)
	}
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(graphs) {
		workers = len(graphs)
	}
	if workers <= 1 {
		for i := range graphs {
			schedule(i)
		}
		return items
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				schedule(i)
			}
		}()
	}
	for i := range graphs {
		next <- i
	}
	close(next)
	wg.Wait()
	return items
}
