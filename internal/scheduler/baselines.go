package scheduler

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/repository"
)

// Baseline policies for the evaluation benchmarks. Each honours the same
// contract as the Site Scheduler — an AFG in, an allocation table out — but
// replaces the prediction-driven placement with a naive rule, which is what
// the paper's scheduling claims are measured against.

// hostEntry is one (site, host) pair with its repository record.
type hostEntry struct {
	site string
	host string
	rec  repository.ResourceRecord
}

func collectHosts(sites map[string]*repository.Repository) []hostEntry {
	var names []string
	for s := range sites {
		names = append(names, s)
	}
	sort.Strings(names)
	var out []hostEntry
	for _, s := range names {
		for _, r := range sites[s].Resources.List() {
			if r.Dynamic.Down {
				continue
			}
			out = append(out, hostEntry{site: s, host: r.Static.HostName, rec: r})
		}
	}
	return out
}

// baselinePolicy is the four naive placement rules behind the policy
// registry, walking the tasks in topological order:
//
//   - "random": a uniformly random up host per task, a pure function of
//     Config.Seed;
//   - "roundrobin": hosts cycled in (site, host) name order, restarting
//     with every application;
//   - "minload": the host with the lowest recorded load, ignoring
//     heterogeneity (speed/weights) and transfers; each placement adds one
//     load unit so it does not dog-pile one idle host;
//   - "fastest": every task on the host with the highest static speed
//     factor — the "prediction-blind" rule that ignores load entirely.
//
// Host inventories come from the request's in-process LocalSelectors'
// repositories; remote-only deployments see just the hosts their RPC peers
// expose locally.
type baselinePolicy struct {
	kind string
}

// Name implements Policy.
func (b baselinePolicy) Name() string { return b.kind }

// Schedule implements Policy.
func (b baselinePolicy) Schedule(ctx context.Context, req *Request) (*AllocationTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.distinctSites(); err != nil {
		return nil, err
	}
	sites := req.siteRepos()
	if len(sites) == 0 {
		return nil, ErrNoSites
	}
	hosts := collectHosts(sites)
	if len(hosts) == 0 {
		return nil, ErrNoEligibleHost
	}
	// pick returns the host index for the i-th task of the walk.
	var pick func(i int) int
	switch b.kind {
	case "random":
		rng := rand.New(rand.NewSource(req.Config.Seed))
		pick = func(int) int { return rng.Intn(len(hosts)) }
	case "roundrobin":
		pick = func(i int) int { return i % len(hosts) }
	case "minload":
		load := make([]float64, len(hosts))
		for i, h := range hosts {
			load[i] = h.rec.Dynamic.Load
		}
		pick = func(int) int {
			best := 0
			for i := range load {
				if load[i] < load[best] {
					best = i
				}
			}
			load[best]++ // a placed task adds one load unit
			return best
		}
	case "fastest":
		best := 0
		for i, h := range hosts {
			if h.rec.Static.SpeedFactor > hosts[best].rec.Static.SpeedFactor {
				best = i
			}
		}
		pick = func(int) int { return best }
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownPolicy, b.kind)
	}
	ix, err := req.Graph.Index()
	if err != nil {
		return nil, err
	}
	table := tableFor(req.Graph.Name, ix)
	for k, i := range ix.Topo() {
		h := hosts[pick(k)]
		table.setAt(i, Assignment{Task: ix.ID(int(i)), Site: h.site, Host: h.host, Hosts: []string{h.host}})
	}
	return table, nil
}
