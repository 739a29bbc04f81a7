package scheduler

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/netsim"
	"repro/internal/repository"
)

// boundTask is one task of a boundCase graph: its function, base cost and
// the bytes it sends each child.
type boundTask struct {
	id, function string
	cost         float64
	out          int64
}

// boundCase is a placement problem in which the earliest-finish scan may
// skip a candidate by its lower bound, data-ready time plus prediction, and
// the winner is known by hand.
type boundCase struct {
	name     string
	sites    []string                         // sites[0] is the local one
	hosts    map[string]map[string][2]float64 // site -> host -> speed, load
	relayed  map[string]bool                  // sites answering through a relaySelector
	net      bool                             // a star network over the sites
	eligible map[string][]string              // function -> the only hosts that run it
	busy     map[string]float64               // ledger seconds other applications hold per host
	tasks    []boundTask
	links    [][2]string
	want     map[string]string // policy, or "replan-" + re-planner -> table
}

func (c boundCase) graph(t *testing.T) *afg.Graph {
	t.Helper()
	g := afg.New("bound")
	for _, bt := range c.tasks {
		if err := g.AddTask(&afg.Task{ID: afg.TaskID(bt.id), Function: bt.function, ComputeCost: bt.cost, OutputBytes: bt.out}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range c.links {
		if err := g.AddLink(afg.Link{From: afg.TaskID(l[0]), To: afg.TaskID(l[1])}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// A skipped candidate is one that could never have won, so the bound moves
// no winner, under every earliest-finish policy and both placing
// re-planners: a parent's own host, data-ready before its site block's
// memo, wins against a faster host that waits for the transfer; a candidate
// whose bound beats the best but whose insertion start does not loses, and
// a later one wins; a ledger floor lifts a bound-passing start past the
// best; ineligible (NaN) cells sit between eligible ones; and an offer whose
// bound equals the best exactly is skipped, so the first candidate keeps the
// tie. CPOP pins the ledger case's one task to its cheapest host, and the
// eft walks see each site's one offer per task, so their winners differ where
// their candidates do. The re-planners repair a table that put every task on
// one down host, "z-0"; they read no ledger, so the ledger case gives them
// none.
func TestFinishBoundKeepsEveryWinner(t *testing.T) {
	cases := []boundCase{{
		name:  "parent's own host below its block memo",
		sites: []string{"a"}, net: true,
		hosts:    map[string]map[string][2]float64{"a": {"a-1": {2, 0}, "a-2": {1.8, 0}}},
		eligible: map[string][]string{"pin": {"a-2"}},
		tasks:    []boundTask{{"p", "pin", 10, 19_400_000}, {"c", "f", 10, 0}},
		links:    [][2]string{{"p", "c"}},
		want: map[string]string{
			"heft": "c=a/a-2 p=a/a-2", "cpop": "c=a/a-2 p=a/a-2", "eft": "c=a/a-1 p=a/a-2", "ledger": "c=a/a-1 p=a/a-2",
			"replan-heft": "c=a/a-2 p=a/a-2", "replan-eft": "c=a/a-2 p=a/a-2",
		},
	}, {
		name:  "insertion start pushes a bound-passing candidate past the best",
		sites: []string{"a"},
		hosts: map[string]map[string][2]float64{"a": {"a-1": {1, 0}, "a-2": {1.5, 0}, "a-3": {1.2, 0}}},
		tasks: []boundTask{{"t0", "f", 10, 0}, {"t1", "f", 9, 0}},
		want: map[string]string{
			"heft": "t0=a/a-2 t1=a/a-3", "cpop": "t0=a/a-2 t1=a/a-3", "eft": "t0=a/a-2 t1=a/a-3", "ledger": "t0=a/a-2 t1=a/a-3",
			"replan-heft": "t0=a/a-2 t1=a/a-3", "replan-eft": "t0=a/a-2 t1=a/a-3",
		},
	}, {
		name:  "ledger floor lifts a bound-passing start",
		sites: []string{"a"},
		hosts: map[string]map[string][2]float64{"a": {"a-1": {1, 0}, "a-2": {2, 0}}},
		busy:  map[string]float64{"a-2": 20},
		tasks: []boundTask{{"t0", "f", 10, 0}},
		want:  map[string]string{"heft": "t0=a/a-1", "cpop": "t0=a/a-2", "eft": "t0=a/a-1", "ledger": "t0=a/a-1"},
	}, {
		name:     "ineligible cells between eligible ones",
		sites:    []string{"a"},
		hosts:    map[string]map[string][2]float64{"a": {"a-1": {1, 0}, "a-2": {3, 0}, "a-3": {2, 0}, "a-4": {2.5, 0}}},
		eligible: map[string][]string{"g": {"a-1", "a-3"}},
		tasks:    []boundTask{{"t0", "g", 10, 0}, {"t1", "g", 10, 0}, {"t2", "g", 10, 0}},
		want: map[string]string{
			"heft": "t0=a/a-3 t1=a/a-1 t2=a/a-3", "cpop": "t0=a/a-3 t1=a/a-1 t2=a/a-3",
			"eft": "t0=a/a-3 t1=a/a-1 t2=a/a-3", "ledger": "t0=a/a-3 t1=a/a-1 t2=a/a-3",
			"replan-heft": "t0=a/a-3 t1=a/a-1 t2=a/a-3", "replan-eft": "t0=a/a-3 t1=a/a-1 t2=a/a-3",
		},
	}, {
		name:  "offer bound equal to the best",
		sites: []string{"a", "b"}, relayed: map[string]bool{"b": true},
		hosts: map[string]map[string][2]float64{"a": {"a-1": {2, 0}}, "b": {"b-1": {1, 0}}},
		tasks: []boundTask{{"t0", "f", 10, 0}, {"t1", "f", 10, 0}},
		want: map[string]string{
			"heft": "t0=a/a-1 t1=a/a-1", "cpop": "t0=a/a-1 t1=a/a-1", "eft": "t0=a/a-1 t1=a/a-1", "ledger": "t0=a/a-1 t1=a/a-1",
			"replan-heft": "t0=a/a-1 t1=a/a-1", "replan-eft": "t0=a/a-1 t1=a/a-1",
		},
	}}
	for _, c := range cases {
		repos := map[string]*repository.Repository{}
		var refs []HostRef
		var sels []HostSelector
		for _, site := range c.sites {
			repos[site] = makeRepo(t, site, c.hosts[site])
			for fn, hosts := range c.eligible {
				for _, h := range hosts {
					if _, ok := c.hosts[site][h]; ok {
						repos[site].Constraints.SetLocation(fn, h, "lib/"+fn)
					}
				}
			}
			ls := &LocalSelector{Site: site, Repo: repos[site]}
			if c.relayed[site] {
				sels = append(sels, relaySelector{ls})
			} else {
				sels = append(sels, ls)
			}
		}
		for site, hosts := range c.hosts {
			for h := range hosts {
				refs = append(refs, HostRef{Site: site, Host: h})
			}
		}
		slices.SortFunc(refs, func(a, b HostRef) int { return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(a.Host, b.Host)) })
		var net *netsim.Network
		if c.net {
			net = netsim.StarTopology(c.sites, 5*time.Millisecond, 1e7, 1)
		}
		g := c.graph(t)
		for _, policy := range []string{"heft", "cpop", "eft", "ledger"} {
			ledger := NewLoadLedger()
			for h, s := range c.busy {
				ledger.Reserve(h, s)
			}
			env := NewRequest(nil, sels[0], sels[1:], net, WithLedger(ledger))
			table, err := runPolicy(policy, env, g)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, policy, err)
			}
			if got := renderTable(g, table); got != c.want[policy] {
				t.Errorf("%s, %s: %s, want %s", c.name, policy, got, c.want[policy])
			}
		}
		truth := heftTruth(repos)
		model := func(task *afg.Task, host string) float64 {
			if only, ok := c.eligible[task.Function]; ok && !slices.Contains(only, host) {
				return math.NaN()
			}
			return truth(task, host)
		}
		for _, name := range []string{"heft", "eft"} {
			want, ok := c.want["replan-"+name]
			if !ok {
				continue
			}
			rp, _ := LookupReplanner(name)
			pl, err := rp.Replan(&ReplanRequest{
				Graph: g, Table: tableOn(g, model, "z", "z-0"), Down: map[string]bool{"z-0": true},
				Event: Deviation{Kind: DeviationHostDown, Host: "z-0"}, Costs: model, Net: net,
				Hosts: append(slices.Clone(refs), HostRef{Site: "z", Host: "z-0"}),
			})
			if err != nil {
				t.Fatalf("%s, replan %s: %v", c.name, name, err)
			}
			if got := renderTable(g, pl.Table); got != want {
				t.Errorf("%s, replan %s: %s, want %s", c.name, name, got, want)
			}
		}
	}
}
