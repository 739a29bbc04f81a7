package scheduler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/afg"
	"repro/internal/repository"
)

// relaySelector answers the multicast with an in-process site's Fig 5
// offers, but is no *LocalSelector, so every policy sees the site the way it
// sees an RPC peer: an offer block, its predictions exactly the site's own.
type relaySelector struct{ inner *LocalSelector }

func (r relaySelector) SiteName() string { return r.inner.Site }

func (r relaySelector) SelectHosts(g *afg.Graph) (map[afg.TaskID]Choice, error) {
	return r.inner.SelectHosts(g)
}

// tieCase is a placement problem whose candidates finish at exactly the
// same time: sites of identical hosts (speed 1, no load), no network, and
// tasks of one cost with no links.
type tieCase struct {
	name     string
	sites    []string            // sites[0] is the local one
	hosts    map[string][]string // site -> its hosts
	relayed  map[string]bool     // sites answering through a relaySelector
	tasks    int                 // independent tasks t0, t1, ...
	parallel bool                // every task parallel on two hosts
	want     map[string]string   // policy, or "replan-" + re-planner -> table
}

func (c tieCase) graph(t *testing.T) *afg.Graph {
	t.Helper()
	g := afg.New("ties")
	for i := 0; i < c.tasks; i++ {
		task := &afg.Task{ID: afg.TaskID(fmt.Sprintf("t%d", i)), Function: "f", ComputeCost: 10}
		if c.parallel {
			task.Mode, task.Processors = afg.Parallel, 2
		}
		if err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// renderTable writes a table as "task=site/host+host" in task id order.
func renderTable(g *afg.Graph, table *AllocationTable) string {
	var out []string
	for _, id := range g.TaskIDs() {
		a, _ := table.Get(id)
		out = append(out, fmt.Sprintf("%s=%s/%s", id, a.Site, strings.Join(effectiveHosts(a), "+")))
	}
	return strings.Join(out, " ")
}

// On an exact finish tie the first candidate in (site, host) order wins —
// the order the map-keyed walks realised — under every earliest-finish
// policy and both placing re-planners: between two hosts of one site,
// between two sites, between an offer block and a column block (an offer
// site on either side), and between two sites' machine sets. The
// re-planners repair a table that put every task on one down host, "z-0",
// which sorts after every live site.
func TestExactFinishTiesGoToFirstCandidate(t *testing.T) {
	cases := []tieCase{{
		name:  "two hosts at one site",
		sites: []string{"a"}, hosts: map[string][]string{"a": {"a-1", "a-2"}}, tasks: 3,
		want: map[string]string{
			"heft": "t0=a/a-1 t1=a/a-2 t2=a/a-1", "cpop": "t0=a/a-1 t1=a/a-2 t2=a/a-1",
			"eft": "t0=a/a-1 t1=a/a-2 t2=a/a-1", "ledger": "t0=a/a-1 t1=a/a-2 t2=a/a-1",
			"replan-heft": "t0=a/a-1 t1=a/a-2 t2=a/a-1", "replan-eft": "t0=a/a-1 t1=a/a-2 t2=a/a-1",
		},
	}, {
		name:  "two sites, no network",
		sites: []string{"a", "b"}, hosts: map[string][]string{"a": {"a-1"}, "b": {"b-1"}}, tasks: 3,
		want: map[string]string{
			"heft": "t0=a/a-1 t1=b/b-1 t2=a/a-1", "cpop": "t0=a/a-1 t1=b/b-1 t2=a/a-1",
			"eft": "t0=a/a-1 t1=b/b-1 t2=a/a-1", "ledger": "t0=a/a-1 t1=b/b-1 t2=a/a-1",
			"replan-heft": "t0=a/a-1 t1=b/b-1 t2=a/a-1", "replan-eft": "t0=a/a-1 t1=b/b-1 t2=a/a-1",
		},
	}, {
		name:  "offer blocks around a column block",
		sites: []string{"b", "a", "c"}, hosts: map[string][]string{"a": {"a-1"}, "b": {"b-1"}, "c": {"c-1"}},
		relayed: map[string]bool{"a": true, "c": true}, tasks: 1,
		want: map[string]string{"heft": "t0=a/a-1", "cpop": "t0=a/a-1", "eft": "t0=a/a-1", "ledger": "t0=a/a-1"},
	}, {
		name:  "offer block before a column block",
		sites: []string{"b", "a"}, hosts: map[string][]string{"a": {"a-1"}, "b": {"b-1"}},
		relayed: map[string]bool{"a": true}, tasks: 1,
		want: map[string]string{"heft": "t0=a/a-1", "cpop": "t0=a/a-1", "eft": "t0=a/a-1", "ledger": "t0=a/a-1"},
	}, {
		name:  "column block before an offer block",
		sites: []string{"a", "b"}, hosts: map[string][]string{"a": {"a-1"}, "b": {"b-1"}},
		relayed: map[string]bool{"b": true}, tasks: 1,
		want: map[string]string{"heft": "t0=a/a-1", "cpop": "t0=a/a-1", "eft": "t0=a/a-1", "ledger": "t0=a/a-1"},
	}, {
		name:  "parallel machine sets at two sites",
		sites: []string{"a", "b"}, hosts: map[string][]string{"a": {"a-1", "a-2"}, "b": {"b-1", "b-2"}},
		tasks: 2, parallel: true,
		want: map[string]string{
			"heft": "t0=a/a-1+a-2 t1=b/b-1+b-2", "cpop": "t0=a/a-1 t1=b/b-1+b-2",
			"eft": "t0=a/a-1+a-2 t1=b/b-1+b-2", "ledger": "t0=a/a-1+a-2 t1=b/b-1+b-2",
			"replan-heft": "t0=a/a-1 t1=a/a-2", "replan-eft": "t0=a/a-1 t1=a/a-2",
		},
	}}
	for _, c := range cases {
		repos := map[string]*repository.Repository{}
		var refs []HostRef
		var sels []HostSelector
		for _, site := range c.sites {
			speeds := map[string][2]float64{}
			for _, h := range c.hosts[site] {
				speeds[h] = [2]float64{1, 0}
			}
			repos[site] = makeRepo(t, site, speeds)
			ls := &LocalSelector{Site: site, Repo: repos[site]}
			if c.relayed[site] {
				sels = append(sels, relaySelector{ls})
			} else {
				sels = append(sels, ls)
			}
		}
		for _, site := range []string{"a", "b", "c"} {
			for _, h := range c.hosts[site] {
				refs = append(refs, HostRef{Site: site, Host: h})
			}
		}
		g := c.graph(t)
		for _, policy := range []string{"heft", "cpop", "eft", "ledger"} {
			env := NewRequest(nil, sels[0], sels[1:], nil, WithLedger(NewLoadLedger()))
			table, err := runPolicy(policy, env, g)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, policy, err)
			}
			if got := renderTable(g, table); got != c.want[policy] {
				t.Errorf("%s, %s: %s, want %s", c.name, policy, got, c.want[policy])
			}
		}
		for _, name := range []string{"heft", "eft"} {
			want, ok := c.want["replan-"+name]
			if !ok {
				continue
			}
			model := heftTruth(repos)
			rp, _ := LookupReplanner(name)
			pl, err := rp.Replan(&ReplanRequest{
				Graph: g, Table: tableOn(g, model, "z", "z-0"), Down: map[string]bool{"z-0": true},
				Event: Deviation{Kind: DeviationHostDown, Host: "z-0"}, Costs: model,
				Hosts: append(refs, HostRef{Site: "z", Host: "z-0"}),
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
