package site

import (
	"fmt"
	"net/rpc"
	"strings"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// TestScheduleBatchOverRPC drives the Site.ScheduleBatch endpoint — the
// scheduler.Batch API as exposed by cmd/vdce-server — and checks per-item
// results come back in input order.
func TestScheduleBatchOverRPC(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 31)
	m.TickMonitors()
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	graphs := []interface{ Encode() ([]byte, error) }{
		dagen.Scale(50, 5, 4, 1),
		workload.Pipeline(8, 0.1, 1<<10),
		workload.ForkJoin(6, 0.2, 1<<10),
	}
	var args BatchArgs
	for _, g := range graphs {
		raw, err := g.Encode()
		if err != nil {
			t.Fatal(err)
		}
		args.AFGs = append(args.AFGs, raw)
	}
	// One malformed AFG mid-batch must fail alone, not sink the batch.
	args.AFGs = append(args.AFGs, []byte("{not json"))
	var reply BatchReply
	if err := client.Call("Site.ScheduleBatch", args, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Tables) != 4 || len(reply.Errs) != 4 {
		t.Fatalf("got %d tables / %d errs, want 4", len(reply.Tables), len(reply.Errs))
	}
	for i, want := range []int{50, 8, 8} {
		if reply.Errs[i] != "" {
			t.Fatalf("item %d errored: %s", i, reply.Errs[i])
		}
		if len(reply.Tables[i]) != want {
			t.Fatalf("item %d: %d assignments, want %d", i, len(reply.Tables[i]), want)
		}
		// The assignment order crosses the wire alongside the entries —
		// RebuildTable must reproduce a fully ordered table client-side.
		if len(reply.Orders[i]) != want {
			t.Fatalf("item %d: order has %d ids, want %d", i, len(reply.Orders[i]), want)
		}
		rebuilt := scheduler.RebuildTable("app", reply.Tables[i], reply.Orders[i])
		if got := rebuilt.Order(); len(got) != want {
			t.Fatalf("item %d: rebuilt order has %d ids, want %d", i, len(got), want)
		}
		for j, id := range rebuilt.Order() {
			if id != reply.Orders[i][j] {
				t.Fatalf("item %d: rebuilt order diverges at %d: %v vs %v", i, j, id, reply.Orders[i][j])
			}
		}
	}
	// (gob delivers the nil table slot as an empty map)
	if reply.Errs[3] == "" || len(reply.Tables[3]) != 0 {
		t.Fatalf("malformed item: errs=%q tables=%v", reply.Errs[3], reply.Tables[3])
	}
}

// TestScheduleBatchOverRPCByPolicy selects schedulers by name through the
// RPC options: every registered policy must schedule the batch, and an
// unknown name must fail the call with the registry's listing error.
func TestScheduleBatchOverRPCByPolicy(t *testing.T) {
	m := newTestSite(t, "syracuse", 4, 31)
	m.TickMonitors()
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := workload.Pipeline(10, 0.1, 1<<10)
	raw, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}

	var policies PoliciesReply
	if err := client.Call("Site.Policies", PoliciesArgs{}, &policies); err != nil {
		t.Fatal(err)
	}
	if len(policies.Names) == 0 {
		t.Fatal("Site.Policies returned nothing")
	}
	for _, name := range policies.Names {
		args := BatchArgs{AFGs: [][]byte{raw}, Policy: name}
		var reply BatchReply
		if err := client.Call("Site.ScheduleBatch", args, &reply); err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
		if reply.Errs[0] != "" {
			t.Fatalf("policy %q: item errored: %s", name, reply.Errs[0])
		}
		if len(reply.Tables[0]) != g.Len() {
			t.Fatalf("policy %q: %d assignments, want %d", name, len(reply.Tables[0]), g.Len())
		}
	}

	var reply BatchReply
	err = client.Call("Site.ScheduleBatch", BatchArgs{AFGs: [][]byte{raw}, Policy: "nope"}, &reply)
	if err == nil {
		t.Fatal("unknown policy did not fail the call")
	}
	for _, want := range []string{"unknown policy", "heft", "cpop"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-policy error %q missing %q", err, want)
		}
	}
}

// TestScheduleBatchOverRPCWithLedger drives the batch endpoint with the
// availability-aware + shared-ledger options: every graph must still
// schedule completely, and the ledger must actually steer the batch —
// identical single-task applications may not all land on the same host.
// The site runs serial batch workers so each application deterministically
// sees the previous applications' reservations (with concurrent workers
// the walks could all snapshot the ledger before any reservation lands).
func TestScheduleBatchOverRPCWithLedger(t *testing.T) {
	pool := resource.GenerateSite("syracuse", 4, 4, 31)
	m, err := NewManager("syracuse", pool, netsim.NYNET(0.0001), nil,
		Config{GroupSize: 3, SchedulerConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.TickMonitors()
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	args := BatchArgs{Policy: "eft", SharedLedger: true}
	for i := 0; i < 4; i++ {
		g := afg.New(fmt.Sprintf("single%d", i))
		g.AddTask(&afg.Task{ID: "t", Function: "synthetic.noop", ComputeCost: 5})
		raw, err := g.Encode()
		if err != nil {
			t.Fatal(err)
		}
		args.AFGs = append(args.AFGs, raw)
	}
	var reply BatchReply
	if err := client.Call("Site.ScheduleBatch", args, &reply); err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for i := range args.AFGs {
		if reply.Errs[i] != "" {
			t.Fatalf("item %d errored: %s", i, reply.Errs[i])
		}
		a, ok := reply.Tables[i]["t"]
		if !ok {
			t.Fatalf("item %d missing assignment", i)
		}
		hosts[a.Host] = true
	}
	if len(hosts) < 2 {
		t.Fatalf("shared ledger over RPC did not spread identical apps: %v", hosts)
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

// Selecting Policy "ledger" must share one ledger across the whole batch
// even without the SharedLedger flag — otherwise it degenerates to eft.
func TestLedgerPolicySharesAcrossBatchWithoutFlag(t *testing.T) {
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
		t.Fatalf("ledger policy without SharedLedger flag did not spread identical apps: %v", hosts)
	}
}
