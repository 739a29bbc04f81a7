package site

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// TestScheduleBatchOptsByPolicy selects schedulers by name through the
// batch options: every registered policy must schedule every graph of the
// batch, with the items in input order, and an unknown name must fail the
// call with the registry's listing error.
func TestScheduleBatchOptsByPolicy(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 31)
	m.TickMonitors()
	graphs := []*afg.Graph{
		dagen.Scale(50, 5, 4, 1),
		workload.Pipeline(8, 0.1, 1<<10),
		workload.ForkJoin(6, 0.2, 1<<10),
	}
	for _, name := range scheduler.Policies() {
		items, err := m.ScheduleBatchOpts(graphs, nil, BatchOptions{Policy: name})
		if err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
		if len(items) != len(graphs) {
			t.Fatalf("policy %q: %d items, want %d", name, len(items), len(graphs))
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("policy %q: item %d: %v", name, i, it.Err)
			}
			if it.Table.App != graphs[i].Name || len(it.Table.Order()) != graphs[i].Len() {
				t.Fatalf("policy %q: item %d is %q with %d assignments, want %q with %d",
					name, i, it.Table.App, len(it.Table.Order()), graphs[i].Name, graphs[i].Len())
			}
		}
	}

	_, err := m.ScheduleBatchOpts(graphs, nil, BatchOptions{Policy: "nope"})
	if err == nil {
		t.Fatal("unknown policy did not fail the call")
	}
	for _, want := range []string{"unknown policy", "heft", "cpop"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-policy error %q missing %q", err, want)
		}
	}
}

// An explicitly named "faithful" policy must run paper-faithful placement
// even on a site whose default policy is availability-aware ("eft"): the
// site's Policy is a default, not an override of the caller's explicit
// choice.
func TestExplicitFaithfulIgnoresAvailabilityAwareDefault(t *testing.T) {
	graphs := []*afg.Graph{dagen.Scale(60, 6, 4, 5)}
	tables := make([]*scheduler.AllocationTable, 2)
	for i, siteDefault := range []string{"", "eft"} {
		pool := resource.GenerateSite("syracuse", 4, 4, 31)
		m, err := NewManager("syracuse", pool, netsim.NYNET(0.0001), nil,
			Config{GroupSize: 3, Policy: siteDefault, SchedulerConcurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		items, err := m.ScheduleBatchOpts(graphs, nil, BatchOptions{Policy: "faithful"})
		if err != nil {
			t.Fatal(err)
		}
		if items[0].Err != nil {
			t.Fatal(items[0].Err)
		}
		tables[i] = items[0].Table
	}
	for _, id := range tables[0].Order() {
		a, _ := tables[0].Get(id)
		b, ok := tables[1].Get(id)
		//vdce:ignore floateq explicit-vs-implicit policy equivalence: tables must match bit for bit
		if !ok || a.Host != b.Host || a.Predicted != b.Predicted {
			t.Fatalf("explicit faithful diverges on an eft-default site at %q: %+v vs %+v", id, a, b)
		}
	}
}

// Selecting Policy "ledger" must share one ledger across the whole batch —
// otherwise it degenerates to eft. The site runs serial batch workers so
// each application deterministically sees the previous applications'
// reservations (with concurrent workers the walks could all read the
// ledger before any reservation lands).
func TestLedgerPolicySharesAcrossBatch(t *testing.T) {
	pool := resource.GenerateSite("syracuse", 4, 4, 31)
	m, err := NewManager("syracuse", pool, netsim.NYNET(0.0001), nil,
		Config{GroupSize: 3, SchedulerConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.TickMonitors()
	var graphs []*afg.Graph
	for i := 0; i < 4; i++ {
		g := afg.New(fmt.Sprintf("single%d", i))
		g.AddTask(&afg.Task{ID: "t", Function: "synthetic.noop", ComputeCost: 5})
		graphs = append(graphs, g)
	}
	items, err := m.ScheduleBatchOpts(graphs, nil, BatchOptions{Policy: "ledger"})
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		a, _ := it.Table.Get("t")
		hosts[a.Host] = true
	}
	if len(hosts) < 2 {
		t.Fatalf("ledger policy did not spread identical apps: %v", hosts)
	}
}
