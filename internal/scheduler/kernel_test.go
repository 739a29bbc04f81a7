package scheduler

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/afg"
	"repro/internal/metrics"
)

// opaqueSelector is a site that answers the multicast only with its own
// best offer per task, the way an RPC peer does: the earliest-finish kernel
// sees no per-host costs, just the offer and its host set.
type opaqueSelector struct {
	site   string
	offers map[afg.TaskID]Choice
}

func (s opaqueSelector) SiteName() string { return s.site }

func (s opaqueSelector) SelectHosts(*afg.Graph) (map[afg.TaskID]Choice, error) {
	return s.offers, nil
}

// A parallel-mode task an opaque remote offers as a machine set runs on
// that set at the offered (already split) prediction, under every policy
// that can pick the remote: the set is the remote's decision, and keeping
// only its primary host would under-reserve the others.
func TestOpaqueRemoteParallelKeepsMachineSet(t *testing.T) {
	syr := makeRepo(t, "syr", map[string][2]float64{"syr-1": {1, 0}, "syr-2": {1, 0}})
	g := afg.New("par")
	if err := g.AddTask(&afg.Task{ID: "p", Function: "f", ComputeCost: 10, Mode: afg.Parallel, Processors: 2}); err != nil {
		t.Fatal(err)
	}
	remote := opaqueSelector{site: "rome", offers: map[afg.TaskID]Choice{
		"p": {Site: "rome", Host: "r1", Hosts: []string{"r1", "r2"}, Predicted: 0.5},
	}}
	env := NewRequest(nil, &LocalSelector{Site: "syr", Repo: syr}, []HostSelector{remote}, nil)
	for _, policy := range []string{"faithful", "eft", "heft", "cpop"} {
		table, err := runPolicy(policy, env, g)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		a, _ := table.Get("p")
		if a.Site != "rome" || !reflect.DeepEqual(a.Hosts, []string{"r1", "r2"}) || a.Predicted != 0.5 {
			t.Fatalf("%s: p placed %s hosts=%v pred=%v, want rome hosts=[r1 r2] pred=0.5",
				policy, a.Site, a.Hosts, a.Predicted)
		}
	}
}

// A peer's reply is only as good as its predictions: an offer of NaN, ±Inf
// or a negative time would win every comparison it enters (or turn every
// rank that averages it into NaN), so one such offer drops the whole site,
// as a transient loss wrapping ErrInvalidOffer, under every policy that
// reads peer offers.
func TestInvalidPeerOfferDropsSite(t *testing.T) {
	syr := makeRepo(t, "syr", map[string][2]float64{"syr-1": {1, 0}, "syr-2": {1, 0}})
	g := wideGraph(4, 5)
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		remote := opaqueSelector{site: "rome", offers: map[afg.TaskID]Choice{}}
		for _, id := range []afg.TaskID{"a", "b", "c", "d"} {
			remote.offers[id] = Choice{Site: "rome", Host: "r1", Predicted: 1}
		}
		remote.offers["d"] = Choice{Site: "rome", Host: "r1", Predicted: bad}
		for _, policy := range []string{"faithful", "eft", "heft", "cpop"} {
			env := NewRequest(nil, &LocalSelector{Site: "syr", Repo: syr}, []HostSelector{remote}, nil)
			env.Diag = &Diagnostics{}
			table, err := runPolicy(policy, env, g)
			if err != nil {
				t.Fatalf("%s, offer %v: %v", policy, bad, err)
			}
			for _, id := range table.Order() {
				a, _ := table.Get(id)
				if a.Site != "syr" || !validCost(a.Predicted) {
					t.Errorf("%s, offer %v: %s placed on %s/%s pred=%v, want syr", policy, bad, id, a.Site, a.Host, a.Predicted)
				}
			}
			lost := env.Diag.Transient()
			if len(lost) != 1 || lost[0].Site != "rome" || !errors.Is(lost[0].Err, ErrInvalidOffer) {
				t.Errorf("%s, offer %v: transient losses %v, want rome with ErrInvalidOffer", policy, bad, lost)
			}
		}
	}
}

// The kernel's ledger rule under concurrent batch workers: every policy
// that places through the kernel reserves, per host, exactly the
// predictions of the assignments it committed there — nothing lost or
// double-counted when walks interleave — and every table still replays.
func TestConcurrentLedgerBatchReservesWhatItPlaces(t *testing.T) {
	for _, policy := range []string{"eft", "ledger", "heft", "cpop"} {
		env, repos, net := equivEnv(t, 2)
		ledger := NewLoadLedger()
		env.Config.Ledger = ledger
		graphs := make([]*afg.Graph, 8)
		for i := range graphs {
			graphs[i] = equivGraph(t, 60, 6, int64(i+1))
		}
		items := runBatch(t, policy, env, 4, graphs)
		want := map[string]float64{}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("%s graph %d: %v", policy, i, it.Err)
			}
			if _, err := ValidateSchedule(graphs[i], it.Table, heftTruth(repos), net); err != nil {
				t.Fatalf("%s graph %d: %v", policy, i, err)
			}
			for _, id := range it.Table.Order() {
				a, _ := it.Table.Get(id)
				for _, h := range effectiveHosts(a) {
					want[h] += a.Predicted
				}
			}
		}
		for _, repo := range repos {
			for _, rec := range repo.Resources.List() {
				h := rec.Static.HostName
				if got := ledger.Busy(h); !metrics.ApproxEqual(got, want[h], 1e-9) {
					t.Fatalf("%s: ledger holds %v busy seconds on %s, its assignments predict %v", policy, got, h, want[h])
				}
			}
		}
	}
}

// A walk that fails part-way — a late task nobody offers — gives back
// every second it reserved: the ledger reads exactly as before the walk.
// The reservations are dyadic, so the check is exact, not approximate.
func TestLedgerErrorPathReleasesReservations(t *testing.T) {
	g := afg.New("half")
	for _, id := range []afg.TaskID{"a", "b", "late"} {
		if err := g.AddTask(&afg.Task{ID: id, Function: "f", ComputeCost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddLink(afg.Link{From: "a", To: "b", Bytes: 1})
	g.AddLink(afg.Link{From: "b", To: "late", Bytes: 1})
	offers := func(site string, pred float64) opaqueSelector {
		h := site + "-1"
		s := opaqueSelector{site: site, offers: map[afg.TaskID]Choice{}}
		for _, id := range []afg.TaskID{"a", "b"} {
			s.offers[id] = Choice{Site: site, Host: h, Hosts: []string{h}, Predicted: pred}
		}
		return s
	}
	env := NewRequest(nil, offers("sa", 0.5), []HostSelector{offers("sb", 4)}, nil)
	for _, policy := range []string{"faithful", "eft", "ledger", "heft", "cpop"} {
		ledger := NewLoadLedger()
		ledger.Reserve("sa-1", 2)
		ledger.Reserve("other", 1.25)
		env.Config.Ledger = ledger
		before := map[string]float64{}
		for _, h := range []string{"sa-1", "sb-1", "other"} {
			before[h] = ledger.Busy(h)
		}
		if _, err := runPolicy(policy, env, g); err == nil {
			t.Fatalf("%s: a graph with an unoffered task was scheduled", policy)
		}
		for h, b := range before {
			if got := ledger.Busy(h); math.Float64bits(got) != math.Float64bits(b) {
				t.Fatalf("%s: failed walk left %v busy seconds on %s, found %v", policy, got, h, b)
			}
		}
	}
}

// A failed walk's release races the other walks of its batch: under the
// ledger policy with four workers, one graph fails on its last task (no
// site offers it) after reserving the rest, while seven others place on the
// same hosts. The ledger must end holding exactly the survivors' work, and
// every surviving table must still replay.
func TestConcurrentLedgerBatchReleasesFailedWalk(t *testing.T) {
	const sites, graphs, width, failing = 4, 8, 10, 3
	id := func(g, k int) afg.TaskID { return afg.TaskID(fmt.Sprintf("g%d/t%02d", g, k)) }
	truth := map[afg.TaskID]map[string]float64{}
	var selectors []HostSelector
	var hosts []string
	for si := 0; si < sites; si++ {
		site := fmt.Sprintf("s%d", si)
		hosts = append(hosts, site+"-0", site+"-1")
		sel := opaqueSelector{site: site, offers: map[afg.TaskID]Choice{}}
		for gi := 0; gi < graphs; gi++ {
			for k := 0; k < width+2; k++ {
				h := fmt.Sprintf("%s-%d", site, k%2)
				pred := 0.25 * float64(1+(gi+k+si)%5)
				sel.offers[id(gi, k)] = Choice{Site: site, Host: h, Hosts: []string{h}, Predicted: pred}
				if truth[id(gi, k)] == nil {
					truth[id(gi, k)] = map[string]float64{}
				}
				truth[id(gi, k)][h] = pred
			}
		}
		selectors = append(selectors, sel)
	}
	model := func(task *afg.Task, host string) float64 { return truth[task.ID][host] }
	gs := make([]*afg.Graph, graphs)
	for gi := range gs {
		g := afg.New(fmt.Sprintf("g%d", gi))
		for k := 0; k < width+2; k++ {
			if err := g.AddTask(&afg.Task{ID: id(gi, k), Function: "f", ComputeCost: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for k := 1; k <= width; k++ { // fork from t00, join at the last task
			g.AddLink(afg.Link{From: id(gi, 0), To: id(gi, k), Bytes: 1})
			g.AddLink(afg.Link{From: id(gi, k), To: id(gi, width+1), Bytes: 1})
		}
		if gi == failing {
			late := afg.TaskID(fmt.Sprintf("g%d/late", gi))
			if err := g.AddTask(&afg.Task{ID: late, Function: "f", ComputeCost: 1}); err != nil {
				t.Fatal(err)
			}
			g.AddLink(afg.Link{From: id(gi, width+1), To: late, Bytes: 1})
		}
		gs[gi] = g
	}
	for round := 0; round < 5; round++ {
		env := NewRequest(nil, selectors[0], selectors[1:], nil)
		ledger := NewLoadLedger()
		env.Config.Ledger = ledger
		items := runBatch(t, "ledger", env, 4, gs)
		want := map[string]float64{}
		for gi, it := range items {
			if gi == failing {
				if it.Err == nil {
					t.Fatalf("round %d: a graph with an unoffered task was scheduled", round)
				}
				continue
			}
			if it.Err != nil {
				t.Fatalf("round %d graph %d: %v", round, gi, it.Err)
			}
			if _, err := ValidateSchedule(gs[gi], it.Table, model, nil); err != nil {
				t.Fatalf("round %d graph %d: %v", round, gi, err)
			}
			for _, tid := range it.Table.Order() {
				a, _ := it.Table.Get(tid)
				for _, h := range effectiveHosts(a) {
					want[h] += a.Predicted
				}
			}
		}
		for _, h := range hosts {
			if got := ledger.Busy(h); !metrics.ApproxEqual(got, want[h], 1e-9) {
				t.Fatalf("round %d: ledger holds %v busy seconds on %s, the survivors predict %v", round, got, h, want[h])
			}
		}
	}
}

// A ledger nobody else writes is no ledger: the kernel's own reservations
// cancel exactly in its floor, so eft given a fresh ledger, and "ledger"
// given none, place exactly as eft does.
func TestPrivateLedgerIsEFT(t *testing.T) {
	env, _, _ := equivEnv(t, 3)
	for seed := int64(1); seed <= 3; seed++ {
		g := equivGraph(t, 80, 8, seed)
		want, err := runPolicy("eft", env, g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runPolicy("ledger", env, g)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, fmt.Sprintf("ledger seed %d", seed), got, want)
		fresh := *env
		fresh.Config.Ledger = NewLoadLedger()
		if got, err = runPolicy("eft", &fresh, g); err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, fmt.Sprintf("eft+fresh ledger seed %d", seed), got, want)
	}
}
