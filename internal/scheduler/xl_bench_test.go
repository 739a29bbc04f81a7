package scheduler

// The XL scale point: one 100k-task dagen DAG placed across 1000 hosts
// (8 sites × 125). This is the benchmark the pooled scratch arena and the
// cache-blocked readyAt memo exist for — at this scale the former
// per-schedule allocations dominate and the former O(hosts × parents)
// transfer-time rescan in the EFT inner loop is the top of the CPU
// profile. CI runs it once per scheduled XL job with -benchtime=1x; a
// regression of an order of magnitude surfaces there between PRs.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/repository"
)

const (
	xlTasks        = 100_000
	xlSites        = 8
	xlHostsPerSite = 125
)

// xlEnv builds a large environment — the benchmark's 1000 hosts are xlSites
// sites of xlHostsPerSite: idle hosts whose speed factors come from the dagen
// β knob, joined by a star WAN — the RANKING environment, scaled up.
func xlEnv(b testing.TB, sites, hostsPerSite int) *Request {
	b.Helper()
	repos := map[string]*repository.Repository{}
	names := make([]string, sites)
	for s := 0; s < sites; s++ {
		name := fmt.Sprintf("site%02d", s)
		names[s] = name
		repo := repository.New()
		speeds := dagen.SpeedFactors(hostsPerSite, 1, 1000+int64(s)*101)
		for h, sp := range speeds {
			host := fmt.Sprintf("%s-%03d", name, h)
			err := repo.Resources.Register(repository.ResourceStatic{
				HostName: host, Site: name, Arch: "solaris",
				TotalMemory: 1 << 30, SpeedFactor: sp,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := repo.Resources.UpdateDynamic(host, 0, 1<<30, time.Now()); err != nil {
				b.Fatal(err)
			}
		}
		repos[name] = repo
	}
	net := netsim.StarTopology(names, 5*time.Millisecond, 1e7, 1)
	local := &LocalSelector{Site: names[0], Repo: repos[names[0]]}
	var remotes []HostSelector
	for _, n := range names[1:] {
		remotes = append(remotes, &LocalSelector{Site: n, Repo: repos[n]})
	}
	return NewRequest(nil, local, remotes, net)
}

// BenchmarkXLSchedule — HEFT over the 100k × 1000 cell. The cost matrix,
// ~0.8 GB held in the sites' own prediction slabs with no merged second
// copy, is gathered once in setup (PrewarmCosts into a shared CostCache),
// so the measured region is ranking plus insertion-based placement — the
// part the scratch arena, the per-site-block ready memo and the parent-host
// column stamp make scale.
func BenchmarkXLSchedule(b *testing.B) {
	req := xlEnv(b, xlSites, xlHostsPerSite)
	req.Graph = dagen.Random(dagen.Params{
		Tasks: xlTasks, CCR: 1, Alpha: 1, OutDegree: 4, Beta: 1,
		CommBandwidth: 1e7, Seed: 42,
	})
	req.Config.Costs = NewCostCache()
	if err := req.PrewarmCosts(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := heftPolicy{}.Schedule(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if table.Len() != xlTasks {
			b.Fatalf("short table: %d entries", table.Len())
		}
	}
}
