package scheduler

// Pool-correctness stress: every registered policy scheduling a batch of
// graphs concurrently, all drawing scratch from the one shared sync.Pool,
// must produce tables identical to fresh-allocation runs (scratchPoolOff).
// Under -race this is also the data-race proof for the arena: buffers are
// function-scoped, so two goroutines must never see the same scratch.
//
// Beside the four in-process sites, an opaque peer offers every task — a
// machine set for each parallel one, and some offers on a host name an
// in-process site owns — so pooled offer slabs and the columns its replies
// are interned into are raced and compared too; a second peer fails every
// other graph, so a dropped site's pooled slot is reused by the next run.
//
// The ledger policy runs its batch at Workers=1 in BOTH runs — its tables
// legitimately depend on completion order under concurrency (see Batch),
// which is a determinism property of the policy, not of the pool.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/afg"
)

// graphOffers is an opaque peer whose reply depends on the graph asked
// (by pointer: nearestSelectors compares selectors).
type graphOffers struct {
	site   string
	offers func(*afg.Graph) (map[afg.TaskID]Choice, error)
}

func (s graphOffers) SiteName() string { return s.site }

func (s graphOffers) SelectHosts(g *afg.Graph) (map[afg.TaskID]Choice, error) {
	return s.offers(g)
}

func TestScratchPoolStressEquivalence(t *testing.T) {
	req, repos, _ := equivEnv(t, 11)
	req.Diag = &Diagnostics{}
	shared := repos["oslo"].Resources.List()[0].Static.HostName
	pool := []string{"lima-0", shared, "lima-1", "lima-2"}
	lima := &graphOffers{site: "lima", offers: func(g *afg.Graph) (map[afg.TaskID]Choice, error) {
		m := map[afg.TaskID]Choice{}
		for k, id := range g.TaskIDs() {
			task := g.Task(id)
			n := 1
			if task.Mode == afg.Parallel {
				n = task.Processors
			}
			hosts := pool[k%2 : k%2+n]
			m[id] = Choice{Site: "lima", Host: hosts[0], Hosts: hosts, Predicted: task.ComputeCost * []float64{0.3, 0.7, 1.2}[k%3]}
		}
		return m, nil
	}}
	const nGraphs = 6
	graphs := make([]*afg.Graph, nGraphs)
	for i := range graphs {
		graphs[i] = equivGraph(t, 120, 10, int64(500+i*7))
	}
	down := errors.New("peer down")
	kiev := &graphOffers{site: "kiev", offers: func(g *afg.Graph) (map[afg.TaskID]Choice, error) {
		if slices.Index(graphs, g)%2 == 1 {
			return nil, down
		}
		m, _ := lima.offers(g)
		for id, c := range m {
			c.Site, c.Predicted = "kiev", c.Predicted*1.1
			m[id] = c
		}
		return m, nil
	}}
	req.Remotes = append(req.Remotes, kiev, lima)
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
	onLima, onShared := 0, 0
	for _, name := range names {
		for i := range graphs {
			tablesEqual(t, fmt.Sprintf("%s graph %d pooled-vs-fresh", name, i), got[name][i], want[name][i])
			for _, a := range got[name][i].Entries() {
				if a.Site == "lima" {
					onLima++
					if slices.Contains(a.Hosts, shared) {
						onShared++
					}
				}
			}
		}
	}
	for _, lost := range req.Diag.Transient() {
		if lost.Site != "kiev" || !errors.Is(lost.Err, down) {
			t.Fatalf("lost %v, want only kiev's failures", lost)
		}
	}
	if onLima == 0 || onShared == 0 {
		t.Fatalf("the opaque peer took %d tasks, %d on %s: want some of each", onLima, onShared, shared)
	}
}
