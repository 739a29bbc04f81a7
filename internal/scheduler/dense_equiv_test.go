package scheduler

// Equivalence proofs for the dense-index rewrite: every policy that moved
// from map-keyed to slice-indexed state — HEFT, CPOP, and the site walks
// (faithful/EFT/ledger) — must produce identical allocation tables (same
// assignments, same order, same predictions) and identical simulated
// makespans against the original implementations retained in
// oracle_test.go.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/repository"
)

// equivEnv builds a 4-site heterogeneous environment with per-host speed
// and load spread, so placements have real ties to break and real choices
// to make.
func equivEnv(t testing.TB, seed int64) (*Request, map[string]*repository.Repository, *netsim.Network) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	repos := map[string]*repository.Repository{}
	names := []string{"ames", "kyoto", "oslo", "syr"}
	for _, name := range names {
		hosts := map[string][2]float64{}
		for i := 0; i < 2+rng.Intn(3); i++ {
			hosts[fmt.Sprintf("%s-%02d", name, i)] = [2]float64{1 + rng.Float64()*4, rng.Float64() * 2}
		}
		repos[name] = makeRepo(t, name, hosts)
	}
	net := netsim.StarTopology(names, 5*time.Millisecond, 1e7, 1)
	local := &LocalSelector{Site: names[0], Repo: repos[names[0]]}
	var remotes []HostSelector
	for _, n := range names[1:] {
		remotes = append(remotes, &LocalSelector{Site: n, Repo: repos[n]})
	}
	req := NewRequest(nil, local, remotes, net)
	req.Sites = repos
	return req, repos, net
}

// equivGraph mixes the scale workload's DAG shapes with a few injected
// parallel-mode tasks so the machine-set placement path is exercised.
func equivGraph(t testing.TB, tasks, width int, seed int64) *afg.Graph {
	t.Helper()
	g := dagen.Scale(tasks, width, 6, seed)
	rng := rand.New(rand.NewSource(seed * 31))
	for _, id := range g.TaskIDs() {
		if rng.Intn(12) == 0 {
			task := g.Task(id)
			task.Mode = afg.Parallel
			task.Processors = 2 + rng.Intn(2)
		}
	}
	return g
}

// tablesEqual fails the test unless the two tables assign every task
// identically, in the same order.
func tablesEqual(t *testing.T, label string, got, want *AllocationTable) {
	t.Helper()
	go_, wo := got.Order(), want.Order()
	if len(go_) != len(wo) {
		t.Fatalf("%s: %d assignments, oracle %d", label, len(go_), len(wo))
	}
	for i := range wo {
		if go_[i] != wo[i] {
			t.Fatalf("%s: assignment order diverges at %d: %q vs oracle %q", label, i, go_[i], wo[i])
		}
		a, _ := got.Get(go_[i])
		b, _ := want.Get(wo[i])
		if a.Site != b.Site || a.Host != b.Host || a.Predicted != b.Predicted {
			t.Fatalf("%s: task %q diverges: %+v vs oracle %+v", label, wo[i], a, b)
		}
		if len(a.Hosts) != len(b.Hosts) {
			t.Fatalf("%s: task %q host sets diverge: %v vs oracle %v", label, wo[i], a.Hosts, b.Hosts)
		}
		for k := range a.Hosts {
			if a.Hosts[k] != b.Hosts[k] {
				t.Fatalf("%s: task %q host sets diverge: %v vs oracle %v", label, wo[i], a.Hosts, b.Hosts)
			}
		}
	}
}

// makespansEqual replays both tables and fails unless the simulated
// makespans are bit-identical.
func makespansEqual(t *testing.T, label string, g *afg.Graph, got, want *AllocationTable, repos map[string]*repository.Repository, net *netsim.Network) {
	t.Helper()
	model := heftTruth(repos)
	mg, err := Simulate(g, got, model, net)
	if err != nil {
		t.Fatalf("%s: simulate dense: %v", label, err)
	}
	mw, err := Simulate(g, want, model, net)
	if err != nil {
		t.Fatalf("%s: simulate oracle: %v", label, err)
	}
	if mg != mw {
		t.Fatalf("%s: makespan %v != oracle %v", label, mg, mw)
	}
}

func TestDenseHEFTMatchesOracle(t *testing.T) {
	p, err := Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		req, repos, net := equivEnv(t, seed)
		req.Graph = equivGraph(t, 120, 8, seed)
		dense, err := p.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		want, err := oracleHEFT(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		tablesEqual(t, fmt.Sprintf("heft seed %d", seed), dense, want)
		makespansEqual(t, fmt.Sprintf("heft seed %d", seed), req.Graph, dense, want, repos, net)
	}
}

func TestDenseCPOPMatchesOracle(t *testing.T) {
	p, err := Lookup("cpop")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		req, repos, net := equivEnv(t, seed)
		req.Graph = equivGraph(t, 120, 8, seed)
		dense, err := p.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		want, err := oracleCPOP(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		tablesEqual(t, fmt.Sprintf("cpop seed %d", seed), dense, want)
		makespansEqual(t, fmt.Sprintf("cpop seed %d", seed), req.Graph, dense, want, repos, net)
	}
}

// The HEFT ledger path: timelines seeded from shared cross-application
// reservations must seed identically in the dense rewrite.
func TestDenseHEFTWithLedgerMatchesOracle(t *testing.T) {
	p, err := Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	denseLedger, oracleLedger := NewLoadLedger(), NewLoadLedger()
	for seed := int64(1); seed <= 3; seed++ {
		req, _, _ := equivEnv(t, 2)
		req.Graph = equivGraph(t, 60, 6, seed)

		req.Config.Ledger = denseLedger
		dense, err := p.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		req.Config.Ledger = oracleLedger
		want, err := oracleHEFT(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		tablesEqual(t, fmt.Sprintf("heft+ledger seed %d", seed), dense, want)
	}
	// Both sequences reserved identical schedules, so the ledgers agree.
	ds, os := denseLedger.Snapshot(), oracleLedger.Snapshot()
	if len(ds) != len(os) {
		t.Fatalf("ledger snapshots diverge: %v vs %v", ds, os)
	}
	for h, b := range os {
		if ds[h] != b {
			t.Fatalf("ledger busy diverges on %s: %v vs %v", h, ds[h], b)
		}
	}
}

// The dense site walks (faithful and EFT) against the retained map-keyed
// engine under both priority rules, including the EFT walk's ledger-view
// read path.
func TestDenseSiteWalksMatchOracle(t *testing.T) {
	for _, avail := range []bool{false, true} {
		name := "faithful"
		if avail {
			name = "eft"
		}
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 6; seed++ {
			req, repos, net := equivEnv(t, seed)
			g := equivGraph(t, 120, 8, seed)
			req.Graph = g
			req.Config.Concurrency = 1
			for _, fifo := range []bool{false, true} {
				label, prio := fmt.Sprintf("%s seed %d", name, seed), oraclePriority(ByLevel)
				req.Config.Priority = nil
				if fifo {
					label, prio, req.Config.Priority = label+" fifo", oracleFIFO, FIFOPriority
				}
				dense, err := p.Schedule(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: dense: %v", label, err)
				}
				want, err := oracleSiteRun(&siteScheduler{req: req, avail: avail}, prio)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				tablesEqual(t, label, dense, want)
				makespansEqual(t, label, g, dense, want, repos, net)
			}
		}
	}
}

// The ledger policy: a serial sequence of applications threaded through
// one shared ledger must place identically under the dense walk (bulk
// per-task view refresh) and the oracle (live per-candidate probes).
func TestDenseLedgerPolicyMatchesOracle(t *testing.T) {
	p, err := Lookup("ledger")
	if err != nil {
		t.Fatal(err)
	}
	denseLedger, oracleLedger := NewLoadLedger(), NewLoadLedger()
	req, _, _ := equivEnv(t, 3)
	req.Config.Concurrency = 1
	for seed := int64(1); seed <= 4; seed++ {
		req.Graph = equivGraph(t, 80, 10, seed)

		req.Config.Ledger = denseLedger
		dense, err := p.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		want, err := oracleSiteRun(&siteScheduler{req: req, avail: true, ledger: oracleLedger}, ByLevel)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		tablesEqual(t, fmt.Sprintf("ledger app %d", seed), dense, want)
	}
	ds, os := denseLedger.Snapshot(), oracleLedger.Snapshot()
	for h, b := range os {
		if ds[h] != b {
			t.Fatalf("ledger busy diverges on %s: %v vs %v", h, ds[h], b)
		}
	}
}

// Two sites exposing the SAME host name must share one timeline — the
// map-keyed path keyed timelines by name, so the dense path's canonical
// columns must reproduce it exactly.
func TestDenseHEFTSharedHostNameAcrossSites(t *testing.T) {
	for _, policy := range []string{"heft", "cpop"} {
		p, err := Lookup(policy)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			repos := map[string]*repository.Repository{
				"ames": makeRepo(t, "ames", map[string][2]float64{
					"shared-00": {3, 0}, "ames-01": {1, 1},
				}),
				"oslo": makeRepo(t, "oslo", map[string][2]float64{
					"shared-00": {3, 0.5}, "oslo-01": {2, 0},
				}),
			}
			net := netsim.StarTopology([]string{"ames", "oslo"}, 5*time.Millisecond, 1e7, 1)
			req := NewRequest(equivGraph(t, 60, 6, seed),
				&LocalSelector{Site: "ames", Repo: repos["ames"]},
				[]HostSelector{&LocalSelector{Site: "oslo", Repo: repos["oslo"]}}, net)
			req.Sites = repos
			dense, err := p.Schedule(context.Background(), req)
			if err != nil {
				t.Fatalf("%s seed %d: dense: %v", policy, seed, err)
			}
			var want *AllocationTable
			if policy == "heft" {
				want, err = oracleHEFT(context.Background(), req)
			} else {
				want, err = oracleCPOP(context.Background(), req)
			}
			if err != nil {
				t.Fatalf("%s seed %d: oracle: %v", policy, seed, err)
			}
			tablesEqual(t, fmt.Sprintf("%s shared-host seed %d", policy, seed), dense, want)
		}
	}
}

// The dense per-site selector walk against the map-keyed oracle walk, under
// both priority rules and in both modes.
func TestSelectHostsDenseMatchesMap(t *testing.T) {
	rules := []struct {
		name string
		prio Priority
		want oraclePriority
	}{{"level", nil, ByLevel}, {"fifo", FIFOPriority, oracleFIFO}}
	for _, rule := range rules {
		for _, avail := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				req, _, _ := equivEnv(t, seed)
				g := equivGraph(t, 100, 8, seed)
				sel := req.Local.(*LocalSelector)
				ix, denseOut := fig5(t, sel, g, rule.prio, avail, nil)
				mapOut, err := oracleSelectHosts(sel, g, avail, nil, rule.want)
				if err != nil {
					t.Fatal(err)
				}
				if len(mapOut) != ix.Len() {
					t.Fatalf("map walk covered %d of %d tasks", len(mapOut), ix.Len())
				}
				for id, want := range mapOut {
					got := denseOut[ix.Of(id)]
					if got.Site != want.Site || got.Host != want.Host || got.Predicted != want.Predicted {
						t.Fatalf("%s avail=%v seed %d: task %q: dense %+v vs map %+v", rule.name, avail, seed, id, got, want)
					}
				}
			}
		}
	}
}

// The binary-search gap lookup against the original linear scan, over
// randomized timelines and probes.
func TestTimelineEarliestMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var tl timeline
		cursor := 0.0
		for len(tl.busy) < rng.Intn(12) {
			cursor += rng.Float64() * 3
			end := cursor + 0.1 + rng.Float64()*2
			tl.add(cursor, end)
			cursor = end
		}
		for probe := 0; probe < 20; probe++ {
			ready := rng.Float64() * (cursor + 2)
			dur := rng.Float64() * 3
			got := tl.earliest(ready, dur)
			want := oracleEarliest(&tl, ready, dur)
			if got != want {
				t.Fatalf("trial %d: earliest(%v, %v) = %v, linear scan %v (busy %v)",
					trial, ready, dur, got, want, tl.busy)
			}
		}
	}
}

// failingSelector is a plain HostSelector whose gather always fails —
// the shape of an RPC remote with a dead peer.
type failingSelector struct{ site string }

func (f failingSelector) SiteName() string { return f.site }
func (f failingSelector) SelectHosts(*afg.Graph) (map[afg.TaskID]Choice, error) {
	return nil, errors.New("rpc: connection refused")
}

// A transiently failing site must be dropped AND surfaced; a site that
// cannot host a task stays a silent (but classified) capacity refusal.
func TestGatherDiagnosticsClassifySiteErrors(t *testing.T) {
	req, _, _ := equivEnv(t, 5)
	req.Graph = equivGraph(t, 40, 6, 5)

	// One dead remote, one capacity-refusing remote: constraining each
	// function to a host the site does not have makes every task
	// ineligible there.
	blocked := makeRepo(t, "zrh", map[string][2]float64{"zrh-00": {2, 0}})
	for _, id := range req.Graph.TaskIDs() {
		blocked.Constraints.SetLocation(req.Graph.Task(id).Function, "elsewhere", "/bin/x")
	}
	req.Remotes = append(req.Remotes,
		failingSelector{site: "dead"},
		&LocalSelector{Site: "zrh", Repo: blocked},
	)
	req.Diag = &Diagnostics{}

	for _, name := range []string{"heft", "eft"} {
		req.Diag = &Diagnostics{}
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Schedule(context.Background(), req); err != nil {
			t.Fatalf("%s: schedule failed despite healthy sites: %v", name, err)
		}
		trans := req.Diag.Transient()
		if len(trans) != 1 || trans[0].Site != "dead" {
			t.Fatalf("%s: transient drops = %v, want one for site dead", name, trans)
		}
		refused := req.Diag.CannotHost()
		if len(refused) != 1 || refused[0].Site != "zrh" {
			t.Fatalf("%s: cannot-host drops = %v, want one for site zrh", name, refused)
		}
		if !errors.Is(refused[0], ErrNoEligibleHost) {
			t.Fatalf("%s: cannot-host error lost its class: %v", name, refused[0])
		}
	}
}

// When every site fails and any failure was transient, the terminal error
// must carry it instead of reporting a bare "no sites".
func TestGatherErrSurfacesTransientLosses(t *testing.T) {
	req, _, _ := equivEnv(t, 6)
	req.Graph = equivGraph(t, 10, 4, 6)
	req.Local = failingSelector{site: "dead0"}
	req.Remotes = []HostSelector{failingSelector{site: "dead1"}}
	req.Diag = &Diagnostics{}
	p, err := Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Schedule(context.Background(), req)
	if !errors.Is(err, ErrNoSites) {
		t.Fatalf("err = %v, want ErrNoSites", err)
	}
	if want := "connection refused"; err == nil || !containsStr(err.Error(), want) {
		t.Fatalf("terminal error hides the transient cause: %v", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// One shared CostCache across policies: the second policy's gather must
// come from the cache (pointer-identical matrix), and cached scheduling
// must equal uncached.
func TestCostCacheSharedAcrossPolicies(t *testing.T) {
	req, _, _ := equivEnv(t, 9)
	req.Graph = equivGraph(t, 60, 6, 9)
	cc := NewCostCache()
	req.Config.Costs = cc

	heft, _ := Lookup("heft")
	cpop, _ := Lookup("cpop")
	t1, err := heft.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.m) != 1 {
		t.Fatalf("cache holds %d matrices after first schedule, want 1", len(cc.m))
	}
	cm := cc.m[req.Graph]
	if _, err := cpop.Schedule(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if cc.m[req.Graph] != cm {
		t.Fatal("second policy re-gathered instead of reading the shared cache")
	}

	// And a cached schedule equals an uncached one.
	req2, _, _ := equivEnv(t, 9)
	req2.Graph = req.Graph
	plain, err := heft.Schedule(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "cached vs uncached", t1, plain)
}
