package scheduler

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
)

// referenceSimulate is the pre-incremental simulator — the full ready-set
// rebuild per committed task, O(V²·log V) — kept as the oracle for the
// equivalence tests and the speedup benchmark. Semantics match Simulate
// exactly (including the full-host-set transfer comparison); only the
// algorithm differs.
func referenceSimulate(g *afg.Graph, table *AllocationTable, model TimeModel, net *netsim.Network) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	hostFree := map[string]float64{}
	finish := map[afg.TaskID]float64{}
	pending := map[afg.TaskID]bool{}
	for _, id := range order {
		pending[id] = true
	}
	ready := func(id afg.TaskID) bool {
		for _, l := range g.Parents(id) {
			if _, ok := finish[l.From]; !ok {
				return false
			}
		}
		return true
	}
	startTime := func(id afg.TaskID) (float64, error) {
		a, ok := table.Get(id)
		if !ok {
			return 0, fmt.Errorf("scheduler: task %q missing from allocation table", id)
		}
		var earliest float64
		for _, l := range g.Parents(id) {
			p, _ := table.Get(l.From)
			arrive := finish[l.From]
			if net != nil && !sharesHost(effectiveHosts(p), effectiveHosts(a)) {
				arrive += net.TransferTime(p.Site, a.Site, transferBytes(g, l)).Seconds()
			}
			earliest = math.Max(earliest, arrive)
		}
		for _, h := range effectiveHosts(a) {
			earliest = math.Max(earliest, hostFree[h])
		}
		return earliest, nil
	}
	var makespan float64
	for len(pending) > 0 {
		var q refPq
		heap.Init(&q)
		for _, id := range order {
			if pending[id] && ready(id) {
				st, err := startTime(id)
				if err != nil {
					return 0, err
				}
				heap.Push(&q, refItem{id: id, start: st})
			}
		}
		if q.Len() == 0 {
			return 0, fmt.Errorf("scheduler: simulation deadlock with %d tasks pending", len(pending))
		}
		it := heap.Pop(&q).(refItem)
		a, _ := table.Get(it.id)
		dur := model(g.Task(it.id), a.Host)
		hosts := effectiveHosts(a)
		if len(hosts) > 1 {
			dur /= float64(len(hosts))
		}
		end := it.start + dur
		for _, h := range hosts {
			hostFree[h] = end
		}
		finish[it.id] = end
		delete(pending, it.id)
		makespan = math.Max(makespan, end)
	}
	return makespan, nil
}

// refPq is the reference simulator's id-keyed candidate heap (the live
// simulator's pq is dense-indexed; the oracle stays map/string-keyed).
type refItem struct {
	id    afg.TaskID
	start float64
}

type refPq []refItem

func (q refPq) Len() int { return len(q) }
func (q refPq) Less(i, j int) bool {
	if q[i].start != q[j].start {
		return q[i].start < q[j].start
	}
	return q[i].id < q[j].id
}
func (q refPq) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refPq) Push(x any)   { *q = append(*q, x.(refItem)) }
func (q *refPq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// randomTable assigns every task of g to a random host in a small
// multi-site pool; a fraction of tasks get multi-host (parallel-style)
// assignments so the host-set paths are exercised.
func randomTable(g *afg.Graph, sites, hostsPerSite int, rng *rand.Rand) *AllocationTable {
	table := NewAllocationTable(g.Name)
	host := func(s, h int) string { return fmt.Sprintf("s%02d-h%02d", s, h) }
	for _, id := range g.TaskIDs() {
		s := rng.Intn(sites)
		h := rng.Intn(hostsPerSite)
		a := Assignment{
			Task: id, Site: fmt.Sprintf("s%02d", s), Host: host(s, h),
			Predicted: 1,
		}
		if rng.Intn(4) == 0 { // multi-host task
			n := 2 + rng.Intn(2)
			seen := map[int]bool{h: true}
			a.Hosts = []string{a.Host}
			for len(a.Hosts) < n && len(seen) < hostsPerSite {
				k := rng.Intn(hostsPerSite)
				if !seen[k] {
					seen[k] = true
					a.Hosts = append(a.Hosts, host(s, k))
				}
			}
		}
		table.Set(a)
	}
	return table
}

func equivNet() *netsim.Network {
	net := netsim.New(netsim.DefaultLAN, 1)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			net.Connect(fmt.Sprintf("s%02d", i), fmt.Sprintf("s%02d", j), netsim.PathSpec{
				Latency:   time.Duration(1+i+j) * time.Millisecond,
				Bandwidth: 1e6,
			})
		}
	}
	return net
}

// TestSimulateMatchesReference replays randomized dagen.Scale graphs
// under randomized (multi-host, multi-site) allocation tables through the
// incremental simulator and the quadratic reference; makespans must be
// identical, not merely close — both compute the same maxima and sums.
func TestSimulateMatchesReference(t *testing.T) {
	net := equivNet()
	model := func(task *afg.Task, host string) float64 {
		return task.ComputeCost * (1 + float64(len(host)%3)*0.25)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		tasks := 40 + rng.Intn(160)
		width := 1 + rng.Intn(12)
		g := dagen.Scale(tasks, width, 6, seed)
		table := randomTable(g, 4, 6, rng)
		want, err := referenceSimulate(g, table, model, net)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := Simulate(g, table, model, net)
		if err != nil {
			t.Fatalf("seed %d: incremental: %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed %d (%d tasks, width %d): incremental makespan %v != reference %v",
				seed, tasks, width, got, want)
		}
	}
}

// TestSimulateMatchesReferenceScheduledTables repeats the equivalence check
// on tables produced by the real Site Scheduler rather than random ones.
func TestSimulateMatchesReferenceScheduledTables(t *testing.T) {
	s, _, _, net := twoSiteSetup(t, 10*time.Millisecond)
	for seed := int64(1); seed <= 4; seed++ {
		g := dagen.Scale(120, 8, 5, seed)
		table, err := runPolicy("faithful", s, g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceSimulate(g, table, unitModel, net)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(g, table, unitModel, net)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: incremental %v != reference %v", seed, got, want)
		}
	}
}

// TestSimulateCoHostedParallelLinkIsFree pins the parallel-task transfer
// fix: a link whose endpoints share ANY host — not just the primary —
// moves no data, so a child landing on its parallel parent's secondary
// host pays no WAN time even across a glacial link.
func TestSimulateCoHostedParallelLinkIsFree(t *testing.T) {
	net := netsim.New(netsim.DefaultLAN, 1)
	net.Connect("syr", "rome", netsim.PathSpec{Latency: 100 * time.Second, Bandwidth: 1e3})
	g := afg.New("par")
	g.AddTask(&afg.Task{ID: "p", Function: "f", ComputeCost: 2, Mode: afg.Parallel, Processors: 2, OutputBytes: 1 << 20})
	g.AddTask(&afg.Task{ID: "c", Function: "f", ComputeCost: 1})
	g.AddLink(afg.Link{From: "p", To: "c", Bytes: 1 << 20})
	table := NewAllocationTable("par")
	table.Set(Assignment{Task: "p", Site: "syr", Host: "h1", Hosts: []string{"h1", "h2"}})
	table.Set(Assignment{Task: "c", Site: "rome", Host: "h2"})
	mk, err := Simulate(g, table, unitModel, net)
	if err != nil {
		t.Fatal(err)
	}
	// p runs 2/2 hosts = 1 s; c shares h2 with p, so no transfer: 1 + 1.
	if mk != 2 {
		t.Fatalf("co-hosted link charged transfer: makespan = %v, want 2", mk)
	}
	if v := CommVolume(g, table, net); v != 0 {
		t.Fatalf("CommVolume charged a co-hosted link: %v", v)
	}
	// Control: move the child off the shared hosts and the WAN bites.
	table.Set(Assignment{Task: "c", Site: "rome", Host: "h3"})
	mk, err = Simulate(g, table, unitModel, net)
	if err != nil {
		t.Fatal(err)
	}
	if mk < 100 {
		t.Fatalf("disjoint-host link not charged: makespan = %v", mk)
	}
	if v := CommVolume(g, table, net); v <= 0 {
		t.Fatalf("CommVolume missed a disjoint-host link: %v", v)
	}
}

func simBenchSetup(b *testing.B) (*afg.Graph, *AllocationTable, *netsim.Network) {
	b.Helper()
	g := dagen.Scale(1000, 25, 12, 42)
	rng := rand.New(rand.NewSource(42))
	return g, randomTable(g, 4, 8, rng), equivNet()
}

// BenchmarkSimulate1000Tasks measures the incremental simulator on the
// scale experiment's graph shape; compare against the Reference variant
// below for the O(V²·log V) → O((V+E)·log V) effect.
func BenchmarkSimulate1000Tasks(b *testing.B) {
	g, table, net := simBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(g, table, unitModel, net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateReference1000Tasks is the pre-rewrite algorithm on the
// identical input — the baseline the ≥5× claim is measured against.
func BenchmarkSimulateReference1000Tasks(b *testing.B) {
	g, table, net := simBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referenceSimulate(g, table, unitModel, net); err != nil {
			b.Fatal(err)
		}
	}
}
