//vdce:ignore-file floateq differential file: every walk's prediction must equal the per-pair oracle bit for bit
package scheduler

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/predict"
	"repro/internal/repository"
)

// oraclePrice is the per-pair pricing oracle: what Predict(task, R) must be
// according to the paper's §2.2.1 formula, read straight from the three
// databases for this one (task, host) pair with no state shared between
// pairs. ok is false where Fig 5 filters the host out (down, machine-type
// mismatch, constraint database). queued is the walk's own queued-load
// term for the host.
func oraclePrice(s *LocalSelector, task *afg.Task, r repository.ResourceRecord, queued float64) (pred float64, ok bool) {
	host := r.Static.HostName
	if r.Dynamic.Down {
		return 0, false
	}
	if task.MachineType != "" && r.Static.Arch != task.MachineType {
		return 0, false
	}
	if !s.Repo.Constraints.CanRun(task.Function, host) {
		return 0, false
	}
	base, memReq := task.ComputeCost, task.MemReq
	if rec, err := s.Repo.Tasks.Get(task.Function); err == nil {
		if base <= 0 {
			base = rec.BaseTime
		}
		if memReq <= 0 {
			memReq = rec.MemReq
		}
	}
	if base <= 0 {
		base = 1e-6
	}
	weight, have := s.Repo.Tasks.Weight(task.Function, host)
	if !have {
		weight = predict.WeightFromSpeed(r.Static.SpeedFactor)
	}
	load := r.Dynamic.Load
	if s.Forecast != nil {
		load = s.Forecast(host, load)
	}
	return predict.Seconds(predict.Inputs{
		BaseTime: base,
		Weight:   weight,
		MemReq:   memReq,
		MemAvail: r.Dynamic.AvailableMemory,
		CPULoad:  load + queued,
	}), true
}

// pricingFixture is one repository exercising every input of the
// prediction: several kinds (one the task database has never seen), trial
// weights on some hosts only, constraint-database entries, a memory-starved
// host, a down host, two architectures — and a graph whose tasks carry
// explicit and zero ComputeCost/MemReq, a machine-type preference and one
// parallel task.
func pricingFixture(t testing.TB) (*repository.Repository, *afg.Graph) {
	t.Helper()
	repo := repository.New()
	hosts := []struct {
		name, arch string
		speed      float64
		load       float64
		mem        int64
		down       bool
	}{
		{"h0", "solaris", 1, 0.0, 1 << 30, false},
		{"h1", "solaris", 2, 1.5, 1 << 30, false},
		{"h2", "sgi", 4, 0.25, 1 << 30, false},
		{"h3", "sgi", 3, 0.0, 1 << 16, false}, // memory-starved
		{"h4", "solaris", 8, 0.0, 1 << 30, true},
		{"h5", "alpha", 2.5, 0.75, 1 << 28, false},
	}
	for _, h := range hosts {
		if err := repo.Resources.Register(repository.ResourceStatic{
			HostName: h.name, Site: "syr", Arch: h.arch, TotalMemory: 1 << 30, SpeedFactor: h.speed,
		}); err != nil {
			t.Fatal(err)
		}
		if err := repo.Resources.UpdateDynamic(h.name, h.load, h.mem, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
		if h.down {
			repo.Resources.SetDown(h.name, true)
		}
	}
	repo.Tasks.Put(repository.TaskRecord{Function: "k.plain", BaseTime: 0.7, MemReq: 1 << 20})
	repo.Tasks.Put(repository.TaskRecord{Function: "k.weighted", BaseTime: 1.3, MemReq: 1 << 18,
		Weights: map[string]float64{"h0": 0.9, "h2": 0.2, "h4": 0.05}})
	repo.Tasks.Put(repository.TaskRecord{Function: "k.pinned", BaseTime: 2.1})
	repo.Tasks.SetWeight("k.pinned", "h5", 0.35)
	repo.Constraints.SetLocation("k.pinned", "h1", "/opt/vdce/pinned")
	repo.Constraints.SetLocation("k.pinned", "h4", "/opt/vdce/pinned")
	repo.Constraints.SetLocation("k.pinned", "h5", "/opt/vdce/pinned")
	// "k.unknown" is in no database at all.

	g := afg.New("pricing")
	kinds := []string{"k.plain", "k.weighted", "k.pinned", "k.unknown"}
	var prev afg.TaskID
	for i := 0; i < 24; i++ {
		task := &afg.Task{
			ID:          afg.TaskID(fmt.Sprintf("t%02d", i)),
			Function:    kinds[i%len(kinds)],
			OutputBytes: int64(i) << 8,
		}
		if i%3 != 0 {
			task.ComputeCost = 0.25 + float64(i)*0.4
		}
		if i%5 == 1 {
			task.MemReq = int64(i) << 22
		}
		switch {
		case i%8 == 4: // k.plain tasks only: every arch has a k.plain host
			task.MachineType = "sgi"
		case i == 9: // k.weighted
			task.Mode, task.Processors = afg.Parallel, 3
		}
		if err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
		if i > 0 && i%4 != 0 {
			if err := g.AddLink(afg.Link{From: prev, To: task.ID, Bytes: 1 << 10}); err != nil {
				t.Fatal(err)
			}
		}
		prev = task.ID
	}
	return repo, g
}

// TestWalksPriceLikePerPairOracle is the differential pin under the site's
// pricing: whatever a walk keeps between pairs (a memo, a per-kind row,
// nothing), the Predicted of the Fig 5 walk, of the eft site walk and every
// cell of the gathered cost matrix must equal — bit for bit — the oracle
// that reads Tasks.Get/Tasks.Weight/Constraints.CanRun once per (task,
// host). Run with and without LocalSelector.Cache, twice each, so a second
// walk over whatever the first left behind is covered too.
func TestWalksPriceLikePerPairOracle(t *testing.T) {
	forecast := func(host string, recorded float64) float64 {
		return recorded*0.5 + float64(len(host))*0.125 + float64(host[1]-'0')*0.03125
	}
	for _, withCache := range []bool{false, true} {
		repo, g := pricingFixture(t)
		sel := &LocalSelector{Site: "syr", Repo: repo, Forecast: forecast}
		if withCache {
			sel.Cache = predict.NewCache()
		}
		// A second in-process site on the same hosts under other loads, and
		// an opaque one between them, so the gather has an offer block
		// between two column blocks whose cells differ.
		repo2, _ := pricingFixture(t)
		for i, r := range repo2.Resources.List() {
			if err := repo2.Resources.UpdateDynamic(r.Static.HostName, 0.3*float64(i+1), r.Dynamic.AvailableMemory, time.Unix(0, 0)); err != nil {
				t.Fatal(err)
			}
		}
		abq := &LocalSelector{Site: "abq", Repo: repo2, Forecast: forecast}
		mid := opaqueSelector{site: "mid", offers: map[afg.TaskID]Choice{}}
		for _, id := range g.TaskIDs() {
			mid.offers[id] = Choice{Site: "mid", Host: "m0", Predicted: 1}
		}
		for round := 0; round < 2; round++ {
			name := fmt.Sprintf("cache=%v/round=%d", withCache, round)
			checkFaithfulWalk(t, name, sel, g)
			checkEFTWalk(t, name, sel, g)
			checkCostMatrix(t, name, g, sel)
			checkCostMatrix(t, name+"/3-site", g, sel, abq, mid)
		}
	}
}

// checkFaithfulWalk replays Fig 5 with the oracle — level order, one
// queued-load unit per assignment, (prediction, host) minimiser, parallel
// tasks taking the n best machines — and compares every choice.
func checkFaithfulWalk(t *testing.T, name string, sel *LocalSelector, g *afg.Graph) {
	t.Helper()
	got, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatalf("%s: SelectHosts: %v", name, err)
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	resources := sel.Repo.Resources.List()
	queued := map[string]float64{}
	for _, id := range ByLevel(g.TaskIDs(), levels) {
		task := g.Task(id)
		type cand struct {
			host string
			pred float64
		}
		var cands []cand
		for _, r := range resources {
			if p, ok := oraclePrice(sel, task, r, queued[r.Static.HostName]); ok {
				cands = append(cands, cand{r.Static.HostName, p})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].pred != cands[j].pred {
				return cands[i].pred < cands[j].pred
			}
			return cands[i].host < cands[j].host
		})
		n := 1
		if task.Mode == afg.Parallel {
			n = task.Processors
		}
		if n > len(cands) {
			n = len(cands)
		}
		if n == 0 {
			t.Fatalf("%s: fixture leaves task %q without a host", name, id)
		}
		var maxPred float64
		hosts := make([]string, n)
		for i := 0; i < n; i++ {
			hosts[i] = cands[i].host
			maxPred = math.Max(maxPred, cands[i].pred)
			queued[cands[i].host]++
		}
		want := maxPred / float64(n)
		c := got[id]
		if c.Predicted != want || fmt.Sprint(c.Hosts) != fmt.Sprint(hosts) {
			t.Fatalf("%s: faithful walk task %q: got %v %v, oracle %v %v", name, id, c.Hosts, c.Predicted, hosts, want)
		}
	}
}

// checkEFTWalk schedules under the availability-aware site policy, whose
// per-site walk must report pure predictions (no queued-load term).
func checkEFTWalk(t *testing.T, name string, sel *LocalSelector, g *afg.Graph) {
	t.Helper()
	table, err := runPolicy("eft", NewRequest(nil, sel, nil, nil), g)
	if err != nil {
		t.Fatalf("%s: eft: %v", name, err)
	}
	byHost := map[string]repository.ResourceRecord{}
	for _, r := range sel.Repo.Resources.List() {
		byHost[r.Static.HostName] = r
	}
	for _, id := range g.TaskIDs() {
		a, _ := table.Get(id)
		task := g.Task(id)
		var maxPred float64
		for _, h := range effectiveHosts(a) {
			p, ok := oraclePrice(sel, task, byHost[h], 0)
			if !ok {
				t.Fatalf("%s: eft placed %q on ineligible host %s", name, id, h)
			}
			maxPred = math.Max(maxPred, p)
		}
		if want := maxPred / float64(len(effectiveHosts(a))); a.Predicted != want {
			t.Fatalf("%s: eft task %q on %v: predicted %v, oracle %v", name, id, a.Hosts, a.Predicted, want)
		}
	}
}

// predAt is the cost matrix's cell for task index t on dense column c (NaN
// when ineligible), read through the column's block.
func predAt(cm *CostMatrix, t, c int) float64 {
	bi := 0
	for int32(c) >= cm.blocks[bi].col1 {
		bi++
	}
	return cm.row(t, bi)[c-int(cm.blocks[bi].col0)]
}

// checkCostMatrix compares every cell of the HEFT/CPOP cost gather over
// local and remotes, read through predAt, against the oracle on the cell's own
// site: the columns must be every in-process site's hosts, grouped by site
// in name order and by host within a site.
func checkCostMatrix(t *testing.T, name string, g *afg.Graph, local *LocalSelector, remotes ...HostSelector) {
	t.Helper()
	cc := NewCostCache()
	req := NewRequest(g, local, remotes, nil, WithCostCache(cc))
	if err := req.PrewarmCosts(); err != nil {
		t.Fatalf("%s: PrewarmCosts: %v", name, err)
	}
	cm := cc.m[g]
	bySite := map[string]*LocalSelector{local.Site: local}
	for _, r := range remotes {
		if ls, ok := r.(*LocalSelector); ok {
			bySite[ls.Site] = ls
		}
	}
	type column struct {
		sel *LocalSelector
		r   repository.ResourceRecord
	}
	var cols []column
	for _, site := range cm.sites {
		if sel := bySite[site]; sel != nil {
			for _, r := range sel.Repo.Resources.List() {
				cols = append(cols, column{sel, r})
			}
		}
	}
	if len(cm.hosts) != len(cols) {
		t.Fatalf("%s: matrix has %d columns, repositories %d hosts", name, len(cm.hosts), len(cols))
	}
	ix, _ := g.Index()
	for ti := 0; ti < ix.Len(); ti++ {
		for c, col := range cols {
			if h := cm.hosts[c]; h.Site != col.sel.Site || h.Host != col.r.Static.HostName {
				t.Fatalf("%s: column %d is %s/%s, want %s/%s", name, c, h.Site, h.Host, col.sel.Site, col.r.Static.HostName)
			}
			got := predAt(cm, ti, c)
			want, ok := oraclePrice(col.sel, ix.Task(ti), col.r, 0)
			if !ok {
				want = math.NaN()
			}
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: cost cell (%s, %s/%s) = %v, oracle %v", name, ix.ID(ti), col.sel.Site, col.r.Static.HostName, got, want)
			}
		}
	}
}

// meanSite is an in-process site of n hosts of spread speeds and, per
// site, spread loads; "k.pinned" runs only on every third host and one host
// is down, so rows carry NaN cells between eligible ones.
func meanSite(t *testing.T, site string, n int, load float64) *LocalSelector {
	t.Helper()
	hosts := map[string][2]float64{}
	for h := 0; h < n; h++ {
		hosts[fmt.Sprintf("%s-%02d", site, h)] = [2]float64{1 + float64(h%7)*0.5, load * float64(h%5)}
	}
	repo := makeRepo(t, site, hosts)
	for _, kind := range []string{"k.plain", "k.pinned", "k.heavy"} {
		if err := repo.Tasks.Put(repository.TaskRecord{Function: kind, BaseTime: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < n; h += 3 {
		repo.Constraints.SetLocation("k.pinned", fmt.Sprintf("%s-%02d", site, h), "lib/k.pinned")
	}
	if err := repo.Resources.SetDown(site+"-05", true); err != nil {
		t.Fatal(err)
	}
	return &LocalSelector{Site: site, Repo: repo}
}

// TestGatheredMeanExecMatchesOracle holds the w̄ a gather stores per task
// to oracleMeanExec over the map-keyed candidate lists, bit for bit: over
// one site, over three in-process sites under different loads, and with an
// opaque site's offer block between two column blocks, which offers every
// 50th task, a parallel one, as a machine set. Each gather is large enough
// to be split (2,203 tasks on 64 local and 16 remote hosts a site: 2 or 3
// ranges of 64Ki cells or more) and runs serially, on GOMAXPROCS workers and
// on three, so some range is summed off the calling goroutine on any machine.
func TestGatheredMeanExecMatchesOracle(t *testing.T) {
	kinds := []string{"k.plain", "k.pinned", "k.heavy"}
	tasks := make([]*afg.Task, 2203)
	for i := range tasks {
		tasks[i] = &afg.Task{ID: afg.TaskID(fmt.Sprintf("t%04d", i)), Function: kinds[i%3], ComputeCost: 0.5 + float64(i%17)*0.3}
		if i%50 == 0 {
			tasks[i].Mode, tasks[i].Processors = afg.Parallel, 2
		}
	}
	g, err := afg.Build("means", tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	mid := opaqueSelector{site: "mid", offers: map[afg.TaskID]Choice{}}
	for i, id := range g.TaskIDs() {
		c := Choice{Site: "mid", Host: "m0", Predicted: 0.5 + float64(i%13)*0.3}
		if g.Task(id).Mode == afg.Parallel {
			c.Hosts = []string{"m0", "m1"}
		}
		mid.offers[id] = c
	}
	syr := meanSite(t, "syr", 64, 0.25)
	gathers := []struct {
		name    string
		remotes []HostSelector
	}{
		{"1-site", nil},
		{"3-site", []HostSelector{meanSite(t, "abq", 16, 0.5), meanSite(t, "nyc", 16, 0.75)}},
		{"offer block", []HostSelector{meanSite(t, "abq", 16, 0.5), mid}},
	}
	for _, gather := range gathers {
		cands, err := oracleCollectCandidates(g, NewRequest(g, syr, gather.remotes, nil))
		if err != nil {
			t.Fatalf("%s: oracle: %v", gather.name, err)
		}
		for _, workers := range []int{1, 0, 3} {
			name := fmt.Sprintf("%s, concurrency %d", gather.name, workers)
			cm, err := gatherCostMatrix(ix, NewRequest(g, syr, gather.remotes, nil, WithConcurrency(workers)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(cm.sites) != 1+len(gather.remotes) || len(cm.mean) != ix.Len() {
				t.Fatalf("%s: sites %v, %d stored means for %d tasks", name, cm.sites, len(cm.mean), ix.Len())
			}
			for i := 0; i < ix.Len(); i++ {
				if got, want := cm.mean[i], oracleMeanExec(cands[ix.ID(i)]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: task %q stores w̄ %v, oracle %v", name, ix.ID(i), got, want)
				}
			}
		}
	}
}
