// Package netsim models the wide-area network that interconnects VDCE
// sites. The paper's testbed was the NYNET ATM network; we substitute a
// configurable latency/bandwidth matrix. It serves two roles:
//
//  1. Estimation: the Site Scheduler Algorithm (Fig 4) charges
//     transfer_time(Sparent, Sj) × file_size when placing a task away from
//     its parent's site; TransferTime supplies that estimate.
//  2. Injection: the Data Manager delays real socket transfers between
//     co-simulated sites by the modelled WAN time (scaled, so benchmarks
//     stay fast) to make co-location measurably better, as the paper claims.
package netsim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// PathSpec describes one directed site-to-site path.
type PathSpec struct {
	Latency   time.Duration // one-way propagation + switching latency
	Bandwidth float64       // bytes per second
}

// Network is a site-level latency/bandwidth matrix. Intra-site paths are
// modelled separately (LANSpec) since the paper distinguishes intra-group
// measurement (Group Manager echo packets) from inter-site transfers.
type Network struct {
	mu    sync.RWMutex
	paths map[string]map[string]PathSpec // guarded by mu
	lan   PathSpec                       // guarded by mu
	scale float64                        // wall-clock scale for injected delays (1.0 = real time); guarded by mu
}

// DefaultLAN approximates the paper's campus ATM LAN: OC-3-class bandwidth
// with sub-millisecond latency, so co-located tasks communicate strictly
// faster than tasks split across WAN sites.
var DefaultLAN = PathSpec{Latency: 500 * time.Microsecond, Bandwidth: 19.4e6}

// New creates an empty network with the given LAN model. scale < 1
// compresses injected delays (e.g. 0.001 simulates a 40 ms WAN hop as 40 µs
// of real sleeping); estimates returned by TransferTime are always in
// modelled (unscaled) time.
func New(lan PathSpec, scale float64) *Network {
	if scale <= 0 {
		scale = 1
	}
	return &Network{
		paths: make(map[string]map[string]PathSpec),
		lan:   lan,
		scale: scale,
	}
}

// SetPath installs the directed path a→b. Use Connect for symmetric links.
func (n *Network) SetPath(a, b string, spec PathSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.paths[a] == nil {
		n.paths[a] = make(map[string]PathSpec)
	}
	n.paths[a][b] = spec
}

// Connect installs a symmetric path between a and b.
func (n *Network) Connect(a, b string, spec PathSpec) {
	n.SetPath(a, b, spec)
	n.SetPath(b, a, spec)
}

// Path returns the directed path spec a→b. Same-site pairs return the LAN
// spec; unknown pairs return a conservative default WAN path.
func (n *Network) Path(a, b string) PathSpec {
	if a == b {
		n.mu.RLock()
		defer n.mu.RUnlock()
		return n.lan
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if m, ok := n.paths[a]; ok {
		if p, ok := m[b]; ok {
			return p
		}
	}
	return PathSpec{Latency: 100 * time.Millisecond, Bandwidth: 1e5}
}

// TransferTime estimates the modelled time to move `bytes` from site a to
// site b: latency + bytes/bandwidth. For a == b it uses the LAN model; the
// Site Scheduler's "if the site is the same as the parent site, then the
// total inter-task transfer time will be zero" is realised by the LAN cost
// being orders of magnitude below WAN cost (we keep the small LAN term so
// intra-site transfers are still accounted, which is strictly more accurate
// than the paper's simplification).
func (n *Network) TransferTime(a, b string, bytes int64) time.Duration {
	p := n.Path(a, b)
	if bytes < 0 {
		bytes = 0
	}
	xfer := time.Duration(float64(bytes) / p.Bandwidth * float64(time.Second))
	return p.Latency + xfer
}

// InjectDelay sleeps for the scaled modelled transfer time. The Data
// Manager calls this around real socket writes between co-simulated sites.
func (n *Network) InjectDelay(a, b string, bytes int64) {
	d := n.TransferTime(a, b, bytes)
	n.mu.RLock()
	s := n.scale
	n.mu.RUnlock()
	scaled := time.Duration(float64(d) * s)
	if scaled > 0 {
		time.Sleep(scaled)
	}
}

// Scale returns the wall-clock compression factor.
func (n *Network) Scale() float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.scale
}

// Sites returns the set of sites with at least one configured path.
func (n *Network) Sites() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	seen := map[string]bool{}
	for a, m := range n.paths {
		seen[a] = true
		for b := range m {
			seen[b] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Nearest returns up to k other sites sorted by ascending latency from
// `from`. This implements the Site Scheduler's "select k nearest VDCE
// neighbor sites" step (Fig 4, step 2).
func (n *Network) Nearest(from string, k int) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	type cand struct {
		site string
		lat  time.Duration
	}
	var cands []cand
	for b, p := range n.paths[from] {
		if b != from {
			cands = append(cands, cand{b, p.Latency})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lat != cands[j].lat {
			return cands[i].lat < cands[j].lat
		}
		return cands[i].site < cands[j].site
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, cands[i].site)
	}
	return out
}

// Topology presets ----------------------------------------------------------

// StarTopology connects every pair of the named sites with latencies that
// grow with index distance (site 0 is the hub region). Deterministic, used
// by benchmarks.
func StarTopology(sites []string, baseLatency time.Duration, bandwidth float64, scale float64) *Network {
	n := New(DefaultLAN, scale)
	for i, a := range sites {
		for j, b := range sites {
			if i >= j {
				continue
			}
			dist := j - i
			n.Connect(a, b, PathSpec{
				Latency:   baseLatency * time.Duration(dist),
				Bandwidth: bandwidth,
			})
		}
	}
	return n
}

// NYNET returns a small topology named after the paper's testbed: Syracuse
// and Rome close together (the paper's two labelled sites in Fig 6), with a
// farther NYC site. Latencies are plausible mid-90s ATM WAN numbers.
func NYNET(scale float64) *Network {
	n := New(DefaultLAN, scale)
	n.Connect("syracuse", "rome", PathSpec{Latency: 5 * time.Millisecond, Bandwidth: 19.4e6}) // ~155 Mb/s OC-3
	n.Connect("syracuse", "nyc", PathSpec{Latency: 15 * time.Millisecond, Bandwidth: 19.4e6})
	n.Connect("rome", "nyc", PathSpec{Latency: 18 * time.Millisecond, Bandwidth: 19.4e6})
	return n
}

func (p PathSpec) String() string {
	return fmt.Sprintf("latency=%v bw=%.1fMB/s", p.Latency, p.Bandwidth/1e6)
}
