//vdce:ignore-file floateq concurrency equivalence file: concurrent batch results must match the serial walk bit for bit
package scheduler

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/predict"
	"repro/internal/repository"
)

// multiSiteScheduler builds an n-site scheduling environment over fresh
// repositories; cached attaches pricing counters to every selector.
func multiSiteScheduler(t testing.TB, n int, cached bool) (*Request, []*LocalSelector) {
	t.Helper()
	var sels []*LocalSelector
	mk := func(i int) *LocalSelector {
		site := fmt.Sprintf("site%02d", i)
		repo := makeRepo(t, site, map[string][2]float64{
			site + "-a": {1 + float64(i%5), float64(i % 3)},
			site + "-b": {2, 0.5},
			site + "-c": {4, 2},
		})
		sel := &LocalSelector{Site: site, Repo: repo}
		if cached {
			sel.Cache = predict.NewCache()
		}
		sels = append(sels, sel)
		return sel
	}
	local := mk(0)
	var remotes []HostSelector
	for i := 1; i < n; i++ {
		remotes = append(remotes, mk(i))
	}
	return NewRequest(nil, local, remotes, nil), sels
}

func randomGraphs(n, tasks int, seed int64) []*afg.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*afg.Graph, n)
	for i := range out {
		g := afg.New(fmt.Sprintf("g%02d", i))
		var prev afg.TaskID
		for j := 0; j < tasks; j++ {
			id := afg.TaskID(fmt.Sprintf("t%03d", j))
			g.AddTask(&afg.Task{
				ID: id, Function: "synthetic.noop",
				ComputeCost: 0.1 + rng.Float64()*3,
				OutputBytes: rng.Int63n(1 << 12),
			})
			if j > 0 && rng.Intn(3) > 0 {
				g.AddLink(afg.Link{From: prev, To: id, Bytes: 1 << 10})
			}
			prev = id
		}
		out[i] = g
	}
	return out
}

func assertSameTable(t *testing.T, want, got *AllocationTable) {
	t.Helper()
	wo, go_ := want.Order(), got.Order()
	if len(wo) != len(go_) {
		t.Fatalf("order length %d != %d", len(wo), len(go_))
	}
	for i := range wo {
		if wo[i] != go_[i] {
			t.Fatalf("order[%d] = %q, want %q", i, go_[i], wo[i])
		}
		w, _ := want.Get(wo[i])
		g, _ := got.Get(wo[i])
		if w.Site != g.Site || w.Host != g.Host || w.Predicted != g.Predicted || !slices.Equal(w.Hosts, g.Hosts) {
			t.Fatalf("task %q: got %+v, want %+v", wo[i], g, w)
		}
	}
}

// TestConcurrentFanOutMatchesSerial is the determinism contract of the
// tentpole: the parallel site fan-out (with pricing counters) must produce
// exactly the allocation table the serial walk produces.
func TestConcurrentFanOutMatchesSerial(t *testing.T) {
	graphs := randomGraphs(4, 40, 7)
	serial, _ := multiSiteScheduler(t, 8, false)
	serial.Config.Concurrency = 1
	conc, _ := multiSiteScheduler(t, 8, true)
	conc.Config.Concurrency = 4
	for i, g := range graphs {
		want, err := runPolicy("faithful", serial, g)
		if err != nil {
			t.Fatalf("serial graph %d: %v", i, err)
		}
		got, err := runPolicy("faithful", conc, g)
		if err != nil {
			t.Fatalf("concurrent graph %d: %v", i, err)
		}
		assertSameTable(t, want, got)
	}
}

// TestCacheInvalidationChangesSelection checks no prediction outlives a
// monitor update: after a load update the next walk must re-read the
// repository and move to the newly attractive host, with nothing told to
// forget anything.
func TestCacheInvalidationChangesSelection(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{
		"a": {2, 0}, "b": {2, 5},
	})
	sel := &LocalSelector{Site: "syr", Repo: repo, Cache: predict.NewCache()}
	g := chainGraph(t, []float64{1}, 0)
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "a" {
		t.Fatalf("expected idle host a first, got %q", choices["a"].Host)
	}
	// Loads flip: a gets slammed, b goes idle.
	repo.Resources.UpdateDynamic("a", 5, 1<<30, time.Now())
	repo.Resources.UpdateDynamic("b", 0, 1<<30, time.Now())
	choices, err = sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "b" {
		t.Fatalf("after the load update expected host b, got %q", choices["a"].Host)
	}
}

// TestTrialWeightReachesNextWalk: a trial run is a repository write like
// any other — the weight it records must price the very next walk. (The
// cross-walk memo this replaced kept serving the old weight until the
// host's next monitor update.)
func TestTrialWeightReachesNextWalk(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{
		"a": {2, 0}, "b": {1, 0},
	})
	repo.Tasks.Put(repository.TaskRecord{Function: "synthetic.noop", BaseTime: 1})
	sel := &LocalSelector{Site: "syr", Repo: repo, Cache: predict.NewCache()}
	g := chainGraph(t, []float64{1}, 0)
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "a" {
		t.Fatalf("expected the faster host a first, got %q", choices["a"].Host)
	}
	if err := repo.Tasks.SetWeight("synthetic.noop", "b", 0.1); err != nil {
		t.Fatal(err)
	}
	choices, err = sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "b" || choices["a"].Predicted != 0.1 {
		t.Fatalf("trial weight ignored: %+v", choices["a"])
	}
}

// TestCacheDoesNotBakeInForecast pins the forecast-per-prediction contract:
// a forecaster whose view changes between walks must steer the selector
// though the repository did not move at all.
func TestCacheDoesNotBakeInForecast(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{
		"a": {1, 5}, "b": {1, 5},
	})
	forecast := map[string]float64{"a": 0, "b": 9} // a looks idle at first
	sel := &LocalSelector{
		Site: "syr", Repo: repo, Cache: predict.NewCache(),
		Forecast: func(h string, recorded float64) float64 { return forecast[h] },
	}
	g := chainGraph(t, []float64{1}, 0)
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "a" {
		t.Fatalf("initial forecast ignored: %+v", choices["a"])
	}
	// The forecaster changes its mind; the repository does not move.
	forecast["a"], forecast["b"] = 9, 0
	choices, err = sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if choices["a"].Host != "b" {
		t.Fatalf("second walk priced with the old forecast: %+v", choices["a"])
	}
}

// TestBatchSchedulesInInputOrder checks items line up with inputs and that
// worker count does not change any table — also with the site fan-out
// concurrent at the same time, against the fully serial path (fan-out 1,
// one worker), which on a one-CPU machine the GOMAXPROCS default would
// never exercise.
func TestBatchSchedulesInInputOrder(t *testing.T) {
	graphs := randomGraphs(9, 25, 3)
	s, _ := multiSiteScheduler(t, 4, true)
	serialItems := runBatch(t, "faithful", s, 1, graphs)
	concItems := runBatch(t, "faithful", s, 8, graphs)
	one, four := *s, *s
	one.Config.Concurrency, four.Config.Concurrency = 1, 4
	allSerial := runBatch(t, "faithful", &one, 1, graphs)
	allConc := runBatch(t, "faithful", &four, 8, graphs)
	if len(serialItems) != len(graphs) || len(concItems) != len(graphs) {
		t.Fatalf("item counts %d/%d, want %d", len(serialItems), len(concItems), len(graphs))
	}
	for i := range graphs {
		if concItems[i].Graph != graphs[i] || allConc[i].Graph != graphs[i] {
			t.Fatalf("item %d carries wrong graph", i)
		}
		if serialItems[i].Err != nil || concItems[i].Err != nil || allSerial[i].Err != nil || allConc[i].Err != nil {
			t.Fatalf("item %d errs: %v / %v / %v / %v", i, serialItems[i].Err, concItems[i].Err, allSerial[i].Err, allConc[i].Err)
		}
		assertSameTable(t, serialItems[i].Table, concItems[i].Table)
		assertSameTable(t, allSerial[i].Table, allConc[i].Table)
	}
}

// TestBatchReportsPerItemErrors checks one unschedulable graph fails alone.
func TestBatchReportsPerItemErrors(t *testing.T) {
	graphs := randomGraphs(3, 10, 5)
	bad := afg.New("bad")
	bad.AddTask(&afg.Task{ID: "x", Function: "f", MachineType: "cray", ComputeCost: 1})
	graphs[1] = bad
	s, _ := multiSiteScheduler(t, 2, false)
	items := runBatch(t, "faithful", s, 4, graphs)
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("good graphs errored: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("unschedulable graph did not error")
	}
}

// TestConcurrentSchedulingUnderMonitorUpdates races batch scheduling with
// the fan-out worker pool against live repository updates — the -race
// exercise for the whole concurrent subsystem.
func TestConcurrentSchedulingUnderMonitorUpdates(t *testing.T) {
	s, sels := multiSiteScheduler(t, 6, true)
	s.Config.Concurrency = 4
	graphs := randomGraphs(8, 30, 13)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sel := sels[i%len(sels)]
			for _, rec := range sel.Repo.Resources.List() {
				if rng.Intn(2) == 0 {
					sel.Repo.Resources.UpdateDynamic(rec.Static.HostName, rng.Float64()*4, 1<<30, time.Now())
				}
			}
		}
	}()

	items := runBatch(t, "faithful", s, 4, graphs)
	close(stop)
	wg.Wait()
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("graph %d: %v", i, it.Err)
		}
		if len(it.Table.Order()) != graphs[i].Len() {
			t.Fatalf("graph %d: table has %d of %d tasks", i, len(it.Table.Order()), graphs[i].Len())
		}
	}
}

// TestAllocationTableOrdering pins the Order/Get contracts the concurrent
// merge relies on.
func TestAllocationTableOrdering(t *testing.T) {
	table := NewAllocationTable("app")
	for _, id := range []afg.TaskID{"c", "a", "b"} {
		table.Set(Assignment{Task: id, Site: "syr", Host: "h"})
	}
	if o := table.Order(); len(o) != 3 || o[0] != "c" || o[1] != "a" || o[2] != "b" {
		t.Fatalf("order = %v, want assignment order [c a b]", o)
	}
	// Order returns a copy: mutating it must not corrupt the table.
	o := table.Order()
	o[0] = "zzz"
	if table.Order()[0] != "c" {
		t.Fatal("Order exposed internal state")
	}
	if _, ok := table.Get("missing"); ok {
		t.Fatal("Get on missing task reported ok")
	}
	if ps := table.PerSite("nowhere"); len(ps) != 0 {
		t.Fatalf("PerSite(nowhere) = %v", ps)
	}
}
