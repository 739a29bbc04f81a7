package scheduler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"repro/internal/afg"
	"repro/internal/netsim"
)

// fifoEnv is env under the FIFO ablation, installed on the ready walk and on
// a copy of every in-process selector.
func fifoEnv(env Request) Request {
	fifo := func(sel HostSelector) HostSelector {
		ls := *sel.(*LocalSelector)
		ls.Priority = FIFOPriority
		return &ls
	}
	env.Config.Priority = FIFOPriority
	env.Local = fifo(env.Local)
	remotes := make([]HostSelector, len(env.Remotes))
	for i, r := range env.Remotes {
		remotes[i] = fifo(r)
	}
	env.Remotes = remotes
	return env
}

// TestSiteWalkGolden pins both of the Application Scheduler's figures under
// both priority rules: one sha256 per (site policy, priority) chained over
// every assignment — site, host, host set, Predicted bits, in table order —
// of every graph of the dagen grid, and one per priority over the local
// selector's own Fig 5 choices. The "ledger" cells share one never-released
// ledger across the grid, so later graphs walk ledger-seeded host timelines.
func TestSiteWalkGolden(t *testing.T) {
	sums := map[string]hash.Hash{}
	sum := func(key string) hash.Hash {
		if sums[key] == nil {
			sums[key] = sha256.New()
		}
		return sums[key]
	}
	ledgers := map[string]*LoadLedger{"level": NewLoadLedger(), "fifo": NewLoadLedger()}
	forEachDagenGridGraph(t, func(label string, env Request, g *afg.Graph, _ TimeModel, _ *netsim.Network) {
		for _, prio := range []string{"level", "fifo"} {
			env := env
			if prio == "fifo" {
				env = fifoEnv(env)
			}
			for _, policy := range []string{"faithful", "eft", "ledger"} {
				env := env
				if policy == "ledger" {
					env.Config.Ledger = ledgers[prio]
				}
				table, err := runPolicy(policy, &env, g)
				if err != nil {
					t.Fatalf("%s/%s on %s: %v", policy, prio, label, err)
				}
				h := sum(policy + "/" + prio)
				for _, id := range table.Order() {
					a, _ := table.Get(id)
					fmt.Fprintf(h, "%s|%s|%s|%s|%016x\n", a.Task, a.Site, a.Host,
						strings.Join(a.Hosts, ","), math.Float64bits(a.Predicted))
				}
			}
			choices, err := env.Local.SelectHosts(g)
			if err != nil {
				t.Fatalf("SelectHosts/%s on %s: %v", prio, label, err)
			}
			h := sum("SelectHosts/" + prio)
			for _, id := range g.TaskIDs() {
				c := choices[id]
				fmt.Fprintf(h, "%s|%s|%s|%s|%016x\n", id, c.Site, c.Host,
					strings.Join(c.Hosts, ","), math.Float64bits(c.Predicted))
			}
		}
	})
	got := map[string]string{}
	for key, h := range sums {
		got[key] = hex.EncodeToString(h.Sum(nil))
	}
	checkGolden(t, "sitewalk_golden.json", got)
}
