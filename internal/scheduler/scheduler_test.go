package scheduler

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/afg"
	"repro/internal/netsim"
	"repro/internal/repository"
)

// makeRepo builds a site repository with the given hosts.
// hosts: name -> [speedFactor, load].
func makeRepo(t testing.TB, site string, hosts map[string][2]float64) *repository.Repository {
	t.Helper()
	repo := repository.New()
	for name, sf := range hosts {
		err := repo.Resources.Register(repository.ResourceStatic{
			HostName: name, Site: site, Arch: "solaris", TotalMemory: 1 << 30, SpeedFactor: sf[0],
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Resources.UpdateDynamic(name, sf[1], 1<<30, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// runPolicy schedules g under the named registered policy against env, a
// Request template whose Graph is replaced.
func runPolicy(name string, env *Request, g *afg.Graph) (*AllocationTable, error) {
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	req := *env
	req.Graph = g
	return p.Schedule(context.Background(), &req)
}

// fig5 runs sel's Host Selection walk the way siteScheduler.run does: one key
// vector, its descending order, the dense walk; its offers come back as
// Choices by dense index.
func fig5(t testing.TB, sel *LocalSelector, g *afg.Graph, prio Priority, avail bool, ledger *LoadLedger) (*afg.Index, []Choice) {
	t.Helper()
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	var r siteResult
	if err := sel.selectHostsDense(ix, rankOrderDesc(prio.keys(ix), nil, nil), avail, ledger, &r); err != nil {
		t.Fatal(err)
	}
	return ix, denseOf(ix, r.choices(ix, sel.Site))
}

// denseOf lays an id-keyed choice map out by dense index; a task the map
// does not name gets the zero Choice.
func denseOf(ix *afg.Index, m map[afg.TaskID]Choice) []Choice {
	out := make([]Choice, ix.Len())
	for t := range out {
		out[t] = m[ix.ID(t)]
	}
	return out
}

// runBatch schedules graphs under the named registered policy against env
// across workers goroutines.
func runBatch(t testing.TB, name string, env *Request, workers int, graphs []*afg.Graph) []BatchItem {
	t.Helper()
	p, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return (&Batch{Policy: p, Env: *env, Workers: workers}).Schedule(graphs)
}

func chainGraph(t testing.TB, costs []float64, bytes int64) *afg.Graph {
	t.Helper()
	g := afg.New("chain")
	var prev afg.TaskID
	for i, c := range costs {
		id := afg.TaskID(rune('a' + i))
		if err := g.AddTask(&afg.Task{ID: id, Function: "synthetic.noop", ComputeCost: c, OutputBytes: bytes}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := g.AddLink(afg.Link{From: prev, To: id, Bytes: bytes}); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return g
}

func TestLocalSelectorPicksFastestIdleHost(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{
		"slow": {1, 0}, "fast": {4, 0}, "loaded": {8, 3},
	})
	sel := &LocalSelector{Site: "syr", Repo: repo}
	g := chainGraph(t, []float64{10}, 0)
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	c := choices["a"]
	// fast: 10×(1/4)×1 = 2.5; loaded: 10×(1/8)×4 = 5; slow: 10.
	if c.Host != "fast" {
		t.Fatalf("chose %q (pred %v)", c.Host, c.Predicted)
	}
	if c.Predicted != 2.5 {
		t.Fatalf("pred = %v", c.Predicted)
	}
}

func TestLocalSelectorSkipsDownHosts(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{"fast": {4, 0}, "slow": {1, 0}})
	repo.Resources.SetDown("fast", true)
	sel := &LocalSelector{Site: "syr", Repo: repo}
	choices, err := sel.SelectHosts(chainGraph(t, []float64{1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "slow" {
		t.Fatalf("chose %q", choices["a"].Host)
	}
}

func TestLocalSelectorMachineTypePreference(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{"fast": {8, 0}})
	repo.Resources.Register(repository.ResourceStatic{
		HostName: "sgibox", Site: "syr", Arch: "sgi", TotalMemory: 1 << 30, SpeedFactor: 1,
	})
	repo.Resources.UpdateDynamic("sgibox", 0, 1<<30, time.Now())
	g := chainGraph(t, []float64{1}, 0)
	g.Task("a").MachineType = "sgi"
	sel := &LocalSelector{Site: "syr", Repo: repo}
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "sgibox" {
		t.Fatalf("machine-type preference ignored: %q", choices["a"].Host)
	}
}

func TestLocalSelectorTaskConstraints(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{"fast": {8, 0}, "slow": {1, 0}})
	repo.Constraints.SetLocation("synthetic.noop", "slow", "/bin/noop")
	sel := &LocalSelector{Site: "syr", Repo: repo}
	choices, err := sel.SelectHosts(chainGraph(t, []float64{1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "slow" {
		t.Fatalf("constraint ignored: %q", choices["a"].Host)
	}
}

func TestLocalSelectorNoEligibleHost(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{"h": {1, 0}})
	repo.Resources.SetDown("h", true)
	sel := &LocalSelector{Site: "syr", Repo: repo}
	_, err := sel.SelectHosts(chainGraph(t, []float64{1}, 0))
	if !errors.Is(err, ErrNoEligibleHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalSelectorTrialWeightOverridesSpeed(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{"a": {1, 0}, "b": {2, 0}})
	// Trial runs discovered that for this function host a is unusually
	// good (weight 0.1) despite its low generic speed — the paper's
	// "a processor may give the best execution time for a specific
	// application, but the worst for another".
	repo.Tasks.Put(repository.TaskRecord{Function: "synthetic.noop", BaseTime: 1})
	repo.Tasks.SetWeight("synthetic.noop", "a", 0.1)
	sel := &LocalSelector{Site: "syr", Repo: repo}
	choices, err := sel.SelectHosts(chainGraph(t, []float64{1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "a" {
		t.Fatalf("trial weight ignored: %+v", choices["a"])
	}
}

func TestLocalSelectorMemoryPenalty(t *testing.T) {
	repo := repository.New()
	repo.Resources.Register(repository.ResourceStatic{HostName: "big", Site: "s", TotalMemory: 1 << 30, SpeedFactor: 1})
	repo.Resources.Register(repository.ResourceStatic{HostName: "small", Site: "s", TotalMemory: 1 << 20, SpeedFactor: 2})
	repo.Resources.UpdateDynamic("big", 0, 1<<30, time.Now())
	repo.Resources.UpdateDynamic("small", 0, 1<<20, time.Now())
	g := chainGraph(t, []float64{1}, 0)
	g.Task("a").MemReq = 1 << 29 // fits big, starves small
	sel := &LocalSelector{Site: "s", Repo: repo}
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "big" {
		t.Fatalf("memory penalty ignored: %+v", choices["a"])
	}
}

func TestLocalSelectorParallelTask(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{
		"h1": {4, 0}, "h2": {4, 0}, "h3": {1, 0},
	})
	g := chainGraph(t, []float64{8}, 0)
	g.Task("a").Mode = afg.Parallel
	g.Task("a").Processors = 2
	sel := &LocalSelector{Site: "syr", Repo: repo}
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	c := choices["a"]
	if len(c.Hosts) != 2 {
		t.Fatalf("hosts = %v", c.Hosts)
	}
	for _, h := range c.Hosts {
		if h == "h3" {
			t.Fatal("slow host selected for parallel pair")
		}
	}
	// 8×0.25 = 2 on each fast host, /2 processors = 1.
	if c.Predicted != 1 {
		t.Fatalf("pred = %v", c.Predicted)
	}
}

func TestLocalSelectorForecastHook(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{"a": {1, 5}, "b": {1, 0}})
	// Forecast says host a's recorded load 5 is transient and actually 0,
	// and b's 0 is actually 10.
	sel := &LocalSelector{Site: "syr", Repo: repo, Forecast: func(h string, rec float64) float64 {
		if h == "a" {
			return 0
		}
		return 10
	}}
	choices, err := sel.SelectHosts(chainGraph(t, []float64{1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "a" {
		t.Fatalf("forecast ignored: %+v", choices["a"])
	}
}

// twoSiteSetup builds local site "syr" (slow hosts) and remote "rome"
// (fast hosts) connected by a configurable-latency WAN.
func twoSiteSetup(t testing.TB, wanLatency time.Duration) (*Request, *repository.Repository, *repository.Repository, *netsim.Network) {
	t.Helper()
	syr := makeRepo(t, "syr", map[string][2]float64{"syr-1": {1, 0}, "syr-2": {1, 0}})
	rome := makeRepo(t, "rome", map[string][2]float64{"rome-1": {4, 0}, "rome-2": {4, 0}})
	net := netsim.New(netsim.DefaultLAN, 1)
	net.Connect("syr", "rome", netsim.PathSpec{Latency: wanLatency, Bandwidth: 1e6})
	s := NewRequest(nil,
		&LocalSelector{Site: "syr", Repo: syr},
		[]HostSelector{&LocalSelector{Site: "rome", Repo: rome}},
		net)
	return s, syr, rome, net
}

func TestSiteSchedulerEntryTaskGoesToFastestSite(t *testing.T) {
	s, _, _, _ := twoSiteSetup(t, 5*time.Millisecond)
	g := chainGraph(t, []float64{10}, 0)
	table, err := runPolicy("faithful", s, g)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := table.Get("a")
	if a.Site != "rome" {
		t.Fatalf("entry task should go to the fast site: %+v", a)
	}
}

func TestSiteSchedulerCoLocatesHeavyCommunication(t *testing.T) {
	// Child is cheap but its input is huge: shipping it across a slow WAN
	// dwarfs any compute gain, so the child must stay at the parent site.
	s, _, _, _ := twoSiteSetup(t, 2*time.Second)
	g := afg.New("app")
	g.AddTask(&afg.Task{ID: "parent", Function: "f", ComputeCost: 10})
	g.AddTask(&afg.Task{ID: "child", Function: "f", ComputeCost: 0.1})
	g.AddLink(afg.Link{From: "parent", To: "child", Bytes: 100 << 20})
	table, err := runPolicy("faithful", s, g)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := table.Get("parent")
	c, _ := table.Get("child")
	if p.Site != c.Site {
		t.Fatalf("heavy-comm child split across sites: parent=%s child=%s", p.Site, c.Site)
	}
}

func TestSiteSchedulerTransferAblation(t *testing.T) {
	// Same setup, but with TransferAware off the child chases the faster
	// remote host, ignoring the transfer.
	s, _, _, _ := twoSiteSetup(t, 2*time.Second)
	s.Config.TransferAware = false
	g := afg.New("app")
	g.AddTask(&afg.Task{ID: "parent", Function: "f", ComputeCost: 10})
	g.AddTask(&afg.Task{ID: "child", Function: "f", ComputeCost: 8})
	g.AddLink(afg.Link{From: "parent", To: "child", Bytes: 100 << 20})
	table, err := runPolicy("faithful", s, g)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := table.Get("child")
	if c.Site != "rome" {
		t.Fatalf("transfer-blind child should chase fast site, got %s", c.Site)
	}
}

func TestSiteSchedulerZeroByteLinksAreEntryLike(t *testing.T) {
	// A child whose inputs carry no data ("does not require any input
	// file") is placed like an entry task: best predicted site.
	s, _, _, _ := twoSiteSetup(t, 2*time.Second)
	g := afg.New("app")
	g.AddTask(&afg.Task{ID: "parent", Function: "f", ComputeCost: 1})
	g.AddTask(&afg.Task{ID: "child", Function: "f", ComputeCost: 10})
	g.AddLink(afg.Link{From: "parent", To: "child", Bytes: 0})
	table, err := runPolicy("faithful", s, g)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := table.Get("child")
	if c.Site != "rome" {
		t.Fatalf("zero-byte child should go to fast site, got %s", c.Site)
	}
}

func TestSiteSchedulerKNearestLimitsFanOut(t *testing.T) {
	syr := makeRepo(t, "syr", map[string][2]float64{"syr-1": {1, 0}})
	near := makeRepo(t, "near", map[string][2]float64{"near-1": {2, 0}})
	far := makeRepo(t, "far", map[string][2]float64{"far-1": {100, 0}})
	net := netsim.New(netsim.DefaultLAN, 1)
	net.Connect("syr", "near", netsim.PathSpec{Latency: time.Millisecond, Bandwidth: 1e9})
	net.Connect("syr", "far", netsim.PathSpec{Latency: time.Second, Bandwidth: 1e9})
	s := NewRequest(nil,
		&LocalSelector{Site: "syr", Repo: syr},
		[]HostSelector{
			&LocalSelector{Site: "far", Repo: far},
			&LocalSelector{Site: "near", Repo: near},
		}, net, WithK(1))
	table, err := runPolicy("faithful", s, chainGraph(t, []float64{10}, 0))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := table.Get("a")
	// k=1 restricts the search to the nearest remote ("near"), so the
	// blazing-fast "far" site must not be used.
	if a.Site == "far" {
		t.Fatal("k-nearest fan-out not honoured")
	}
}

func TestSiteSchedulerValidatesGraph(t *testing.T) {
	s, _, _, _ := twoSiteSetup(t, time.Millisecond)
	if _, err := runPolicy("faithful", s, afg.New("empty")); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestSiteSchedulerNoSites(t *testing.T) {
	if _, err := runPolicy("faithful", &Request{}, chainGraph(t, []float64{1}, 0)); !errors.Is(err, ErrNoSites) {
		t.Fatalf("err = %v", err)
	}
}

func TestSiteSchedulerFIFOPriority(t *testing.T) {
	s, _, _, _ := twoSiteSetup(t, time.Millisecond)
	s.Config.Priority = FIFOPriority
	g := chainGraph(t, []float64{1, 2, 3}, 10)
	table, err := runPolicy("faithful", s, g)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 3 {
		t.Fatalf("entries = %d", table.Len())
	}
}

func TestAllocationTablePerSite(t *testing.T) {
	table := NewAllocationTable("app")
	table.Set(Assignment{Task: "a", Site: "syr", Host: "h1"})
	table.Set(Assignment{Task: "b", Site: "rome", Host: "h2"})
	table.Set(Assignment{Task: "c", Site: "syr", Host: "h3"})
	syr := table.PerSite("syr")
	if len(syr) != 2 || syr[0].Task != "a" || syr[1].Task != "c" {
		t.Fatalf("per-site = %+v", syr)
	}
	sites := table.Sites()
	if len(sites) != 2 || sites[0] != "rome" {
		t.Fatalf("sites = %v", sites)
	}
	// Overwriting keeps order stable.
	table.Set(Assignment{Task: "a", Site: "rome", Host: "h9"})
	if o := table.Order(); len(o) != 3 || o[0] != "a" {
		t.Fatalf("order = %v", o)
	}
}

func TestBaselinesProduceCompleteTables(t *testing.T) {
	syr := makeRepo(t, "syr", map[string][2]float64{"s1": {1, 0.5}, "s2": {2, 0.1}})
	rome := makeRepo(t, "rome", map[string][2]float64{"r1": {4, 2}})
	g := chainGraph(t, []float64{1, 2, 3, 4}, 10)
	env := &Request{Local: &LocalSelector{Site: "syr", Repo: syr},
		Remotes: []HostSelector{&LocalSelector{Site: "rome", Repo: rome}}, Config: NewConfig(WithSeed(1))}
	for _, name := range []string{"random", "roundrobin", "minload", "fastest"} {
		table, err := runPolicy(name, env, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if table.Len() != 4 {
			t.Fatalf("%s: entries = %d", name, table.Len())
		}
	}
}

func TestFastestHostSchedulerSerialises(t *testing.T) {
	syr := makeRepo(t, "syr", map[string][2]float64{"s1": {1, 0}, "s2": {9, 0}})
	env := &Request{Local: &LocalSelector{Site: "syr", Repo: syr}}
	table, err := runPolicy("fastest", env, chainGraph(t, []float64{1, 1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range table.Entries() {
		if a.Host != "s2" {
			t.Fatalf("fastest host not used: %+v", a)
		}
	}
}

func TestMinLoadSpreadsTasks(t *testing.T) {
	syr := makeRepo(t, "syr", map[string][2]float64{"s1": {1, 0}, "s2": {1, 0}})
	env := &Request{Local: &LocalSelector{Site: "syr", Repo: syr}}
	g := afg.New("wide")
	for i := 0; i < 4; i++ {
		g.AddTask(&afg.Task{ID: afg.TaskID(rune('a' + i)), Function: "f", ComputeCost: 1})
	}
	table, err := runPolicy("minload", env, g)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, a := range table.Entries() {
		counts[a.Host]++
	}
	if counts["s1"] != 2 || counts["s2"] != 2 {
		t.Fatalf("min-load did not spread: %v", counts)
	}
}

func TestBaselinesEmptySites(t *testing.T) {
	g := chainGraph(t, []float64{1}, 0)
	// A site with no up hosts offers nothing to place on.
	empty := &Request{Local: &LocalSelector{Site: "syr", Repo: repository.New()}}
	for _, name := range []string{"random", "minload"} {
		if _, err := runPolicy(name, empty, g); !errors.Is(err, ErrNoEligibleHost) {
			t.Fatalf("%s: err = %v", name, err)
		}
	}
	// No site repositories at all is the environment error.
	if _, err := runPolicy("random", &Request{}, g); !errors.Is(err, ErrNoSites) {
		t.Fatalf("err = %v", err)
	}
}

// --- Simulation ------------------------------------------------------------

func unitModel(task *afg.Task, host string) float64 { return task.ComputeCost }

func TestSimulateChainMakespan(t *testing.T) {
	g := chainGraph(t, []float64{1, 2, 3}, 0)
	table := NewAllocationTable("chain")
	for _, id := range g.TaskIDs() {
		table.Set(Assignment{Task: id, Site: "s", Host: "h"})
	}
	mk, err := Simulate(g, table, unitModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mk != 6 {
		t.Fatalf("makespan = %v, want 6", mk)
	}
}

func TestSimulateParallelBranchesOverlap(t *testing.T) {
	g := afg.New("fork")
	g.AddTask(&afg.Task{ID: "a", Function: "f", ComputeCost: 1})
	g.AddTask(&afg.Task{ID: "b", Function: "f", ComputeCost: 5})
	g.AddTask(&afg.Task{ID: "c", Function: "f", ComputeCost: 5})
	g.AddLink(afg.Link{From: "a", To: "b"})
	g.AddLink(afg.Link{From: "a", To: "c"})
	table := NewAllocationTable("fork")
	table.Set(Assignment{Task: "a", Site: "s", Host: "h1"})
	table.Set(Assignment{Task: "b", Site: "s", Host: "h1"})
	table.Set(Assignment{Task: "c", Site: "s", Host: "h2"})
	mk, err := Simulate(g, table, unitModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mk != 6 { // branches overlap on different hosts
		t.Fatalf("makespan = %v, want 6", mk)
	}
	// Same host: serialised.
	table.Set(Assignment{Task: "c", Site: "s", Host: "h1"})
	mk, err = Simulate(g, table, unitModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mk != 11 {
		t.Fatalf("serialised makespan = %v, want 11", mk)
	}
}

func TestSimulateChargesWANTransfers(t *testing.T) {
	net := netsim.New(netsim.DefaultLAN, 1)
	net.Connect("syr", "rome", netsim.PathSpec{Latency: time.Second, Bandwidth: 1e9})
	g := chainGraph(t, []float64{1, 1}, 10)
	table := NewAllocationTable("x")
	table.Set(Assignment{Task: "a", Site: "syr", Host: "h1"})
	table.Set(Assignment{Task: "b", Site: "rome", Host: "h2"})
	mk, err := Simulate(g, table, unitModel, net)
	if err != nil {
		t.Fatal(err)
	}
	if mk < 3 { // 1 + ~1s transfer + 1
		t.Fatalf("makespan = %v, WAN transfer not charged", mk)
	}
}

func TestSimulateParallelTaskUsesAllHosts(t *testing.T) {
	g := afg.New("par")
	g.AddTask(&afg.Task{ID: "p", Function: "f", ComputeCost: 8, Mode: afg.Parallel, Processors: 4})
	table := NewAllocationTable("par")
	table.Set(Assignment{Task: "p", Site: "s", Host: "h1", Hosts: []string{"h1", "h2", "h3", "h4"}})
	mk, err := Simulate(g, table, unitModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mk != 2 { // 8 / 4 hosts
		t.Fatalf("makespan = %v, want 2", mk)
	}
}

func TestSimulateMissingAssignment(t *testing.T) {
	g := chainGraph(t, []float64{1}, 0)
	if _, err := Simulate(g, NewAllocationTable("x"), unitModel, nil); err == nil {
		t.Fatal("missing assignment accepted")
	}
}

func TestCommVolume(t *testing.T) {
	net := netsim.New(netsim.DefaultLAN, 1)
	net.Connect("syr", "rome", netsim.PathSpec{Latency: time.Second, Bandwidth: 1e6})
	g := chainGraph(t, []float64{1, 1, 1}, 1000)
	table := NewAllocationTable("x")
	table.Set(Assignment{Task: "a", Site: "syr", Host: "h1"})
	table.Set(Assignment{Task: "b", Site: "syr", Host: "h1"}) // same host: free
	table.Set(Assignment{Task: "c", Site: "rome", Host: "h2"})
	v := CommVolume(g, table, net)
	want := net.TransferTime("syr", "rome", 1000).Seconds()
	if v != want { //vdce:ignore floateq single-link graph: CommVolume is exactly one TransferTime term, no accumulation
		t.Fatalf("comm = %v, want %v", v, want)
	}
	if CommVolume(g, table, nil) != 0 {
		t.Fatal("nil net should report 0")
	}
}

// Property: the site scheduler produces a complete, valid table for random
// DAGs and its simulated makespan is at least the critical path on the
// fastest effective host.
func TestPropertySiteSchedulerComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, _, _, net := twoSiteSetup(t, 10*time.Millisecond)
		g := afg.New("rand")
		layers := 2 + rng.Intn(4)
		var prev []afg.TaskID
		n := 0
		for l := 0; l < layers; l++ {
			width := 1 + rng.Intn(4)
			var cur []afg.TaskID
			for w := 0; w < width; w++ {
				id := afg.TaskID(string(rune('a'+l)) + string(rune('0'+w)))
				g.AddTask(&afg.Task{ID: id, Function: "f", ComputeCost: 0.5 + rng.Float64()*4,
					OutputBytes: int64(rng.Intn(1 << 20))})
				cur = append(cur, id)
				n++
			}
			for _, c := range cur {
				for _, p := range prev {
					if rng.Float64() < 0.4 {
						g.AddLink(afg.Link{From: p, To: c})
					}
				}
			}
			prev = cur
		}
		table, err := runPolicy("faithful", s, g)
		if err != nil {
			return false
		}
		if table.Len() != n {
			return false
		}
		mk, err := Simulate(g, table, func(task *afg.Task, host string) float64 {
			return task.ComputeCost / 4 // fastest hosts are 4x
		}, net)
		if err != nil {
			return false
		}
		cp, _ := g.CriticalPathLength()
		return mk >= cp/4-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictionBeatsBaselinesUnderSkew(t *testing.T) {
	// Heterogeneous, skew-loaded pool: the prediction-driven scheduler
	// should find a makespan no worse than random placement. This is the
	// paper's central scheduling claim in miniature.
	rng := rand.New(rand.NewSource(7))
	hosts := map[string][2]float64{}
	for i := 0; i < 8; i++ {
		hosts[string(rune('a'+i))] = [2]float64{1 + rng.Float64()*7, rng.Float64() * 4}
	}
	repo := makeRepo(t, "syr", hosts)
	net := netsim.New(netsim.DefaultLAN, 1)
	env := NewRequest(nil, &LocalSelector{Site: "syr", Repo: repo}, nil, net, WithSeed(42))

	g := afg.New("load")
	for i := 0; i < 30; i++ {
		g.AddTask(&afg.Task{ID: afg.TaskID(rune('A' + i)), Function: "f", ComputeCost: 1 + rng.Float64()*5})
	}
	truth := func(task *afg.Task, host string) float64 {
		h := hosts[host]
		return task.ComputeCost / h[0] * (1 + h[1])
	}
	vdceTable, err := runPolicy("faithful", env, g)
	if err != nil {
		t.Fatal(err)
	}
	vdceMk, err := Simulate(g, vdceTable, truth, net)
	if err != nil {
		t.Fatal(err)
	}
	randTable, err := runPolicy("random", env, g)
	if err != nil {
		t.Fatal(err)
	}
	randMk, err := Simulate(g, randTable, truth, net)
	if err != nil {
		t.Fatal(err)
	}
	if vdceMk > randMk {
		t.Fatalf("prediction-driven makespan %v worse than random %v", vdceMk, randMk)
	}
}
