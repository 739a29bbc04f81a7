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
				env.Config.Priority = FIFOPriority
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
			// The exported SelectHosts walks by level only; the FIFO cell is
			// the same walk on the schedule's FIFO order.
			ix, choices := fig5(t, env.Local.(*LocalSelector), g, env.Config.Priority, false, nil)
			if prio == "level" {
				m, err := env.Local.SelectHosts(g)
				if err != nil {
					t.Fatalf("SelectHosts on %s: %v", label, err)
				}
				if choices, err = denseChoices(ix, m); err != nil {
					t.Fatalf("SelectHosts on %s: %v", label, err)
				}
			}
			h := sum("SelectHosts/" + prio)
			for i, c := range choices {
				fmt.Fprintf(h, "%s|%s|%s|%s|%016x\n", ix.ID(i), c.Site, c.Host,
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
