package scheduler

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/repository"
)

// planInstance is the environment FuzzPlan and FuzzChurn decode from their
// arguments: a dagen graph, the hosts in (site, host) order, the truth model
// and network, and the request every policy schedules against.
type planInstance struct {
	env   Request
	g     *afg.Graph
	truth TimeModel
	net   *netsim.Network
	hosts []HostRef
}

// decodePlanInstance builds the instance the fuzz arguments choose: ≤ 32
// tasks, every fifth one parallel on two hosts as churnGoldenGrid makes them
// when flags bit 0 is set; ≤ 16 hosts over ≤ 4 sites, every site an
// in-process one; CCR 2 or 0.5 (flags bit 3).
func decodePlanInstance(t *testing.T, seed int64, tasksB, hostsB, sitesB, flags uint8) planInstance {
	nSites := 1 + int(sitesB)%4
	nHosts := max(nSites, 1+int(hostsB)%16)
	sites := make([]string, nSites)
	perSite := make([]map[string][2]float64, nSites)
	for s := range sites {
		sites[s], perSite[s] = fmt.Sprintf("s%d", s), map[string][2]float64{}
	}
	speeds := dagen.SpeedFactors(nHosts, 1, seed)
	var in planInstance
	repos := map[string]*repository.Repository{}
	var remotes []HostSelector
	for s, site := range sites {
		for h := s; h < nHosts; h += nSites { // (site, host) order: names are zero-padded
			name := fmt.Sprintf("%s-%02d", site, h/nSites)
			perSite[s][name] = [2]float64{speeds[h], 0}
			in.hosts = append(in.hosts, HostRef{Site: site, Host: name})
		}
		repos[site] = makeRepo(t, site, perSite[s])
		if s > 0 {
			remotes = append(remotes, &LocalSelector{Site: site, Repo: repos[site]})
		}
	}
	in.net = netsim.StarTopology(sites, 5*time.Millisecond, 1e7, 1)
	in.truth = heftTruth(repos)
	in.env = Request{Local: &LocalSelector{Site: sites[0], Repo: repos[sites[0]]}, Remotes: remotes,
		Net: in.net, Config: NewConfig(WithSeed(1))}

	ccr := 0.5
	if flags&8 != 0 {
		ccr = 2
	}
	in.g = dagen.Random(dagen.Params{Tasks: 1 + int(tasksB)%32, CCR: ccr, Alpha: 1, OutDegree: 4, Beta: 1, Seed: seed})
	if flags&1 != 0 {
		for i, id := range in.g.TaskIDs() {
			if i%5 == 2 {
				in.g.Task(id).Mode, in.g.Task(id).Processors = afg.Parallel, 2
			}
		}
	}
	return in
}

// churnInstance is one FuzzChurn input decoded: the plan instance and its
// heft table, a trace and a re-planner.
type churnInstance struct {
	planInstance
	table     *AllocationTable
	trace     ChurnTrace
	replanner string
	someUp    bool // some host never goes down
}

// decodeChurnInstance builds decodePlanInstance's instance, a re-planner
// (flags bits 1–2) and a trace: each 4 bytes script one event: its time as
// a fraction of the fault-free makespan (0 = at the start, equal bytes = one
// instant), its host, down or up (bit 0), and, when bit 1 is set, a straggle
// of 1–100× on that host.
func decodeChurnInstance(t *testing.T, seed int64, tasksB, hostsB, sitesB, flags uint8, trace []byte) churnInstance {
	in := churnInstance{planInstance: decodePlanInstance(t, seed, tasksB, hostsB, sitesB, flags)}
	in.replanner = []string{"dup", "eft", "heft"}[int(flags>>1&3)%3]
	var err error
	if in.table, err = runPolicy("heft", &in.env, in.g); err != nil {
		t.Fatal(err)
	}
	fair, err := Simulate(in.g, in.table, in.truth, in.net)
	if err != nil {
		t.Fatal(err)
	}

	downs := map[string]bool{}
	for k := 0; k+4 <= len(trace) && k < 4*32; k += 4 {
		h := in.hosts[int(trace[k+1])%len(in.hosts)].Host
		ev := ChurnEvent{At: fair * float64(trace[k]) / 128, Host: h, Down: trace[k+2]&1 != 0}
		in.trace.Events = append(in.trace.Events, ev)
		downs[h] = downs[h] || ev.Down
		if trace[k+2]&2 != 0 {
			if in.trace.Straggle == nil {
				in.trace.Straggle = map[string]float64{}
			}
			in.trace.Straggle[h] = 1 + 99*float64(trace[k+3])/255
		}
	}
	slices.SortStableFunc(in.trace.Events, func(a, b ChurnEvent) int { return cmp.Compare(a.At, b.At) })
	for _, h := range in.hosts {
		in.someUp = in.someUp || !downs[h.Host]
	}
	return in
}

// churnSeedBytes encodes a generated trace in FuzzChurn's event bytes.
func churnSeedBytes(tr ChurnTrace, hosts []string, fair float64) []byte {
	var out []byte
	for _, ev := range tr.Events {
		kind, slow := byte(0), byte(0)
		if ev.Down {
			kind = 1
		}
		if f := tr.Straggle[ev.Host]; f > 1 {
			kind, slow = kind|2, byte(min(255, math.Round((f-1)*255/99)))
		}
		out = append(out, byte(min(255, math.Round(ev.At/fair*128))), byte(slices.Index(hosts, ev.Host)), kind, slow)
	}
	return out
}

// FuzzChurn holds RunChurn — its recycled repair tables, pooled scratch and
// dense settled state — to three oracles on instances no fixed grid has: a
// host down at t=0, two events at one instant, repairs, stragglers up to
// 100×, one host or one site. The run returns within a wall-clock bound (the
// input is printed otherwise), returns no error while some host never goes
// down, and gives the same ChurnOutcome on a warm rerun and with the scratch
// pool off. The corpus is seeded from churn_golden's cells, cut to 32 tasks.
func FuzzChurn(f *testing.F) {
	names := make([]string, 16) // decodeChurnInstance's hosts, by trace byte
	for h := range names {
		names[h] = fmt.Sprintf("s%d-%02d", h%4, h/4)
	}
	for seed := int64(1); seed <= 8; seed++ {
		for cell := uint8(0); cell < 12; cell++ { // serial/parallel × permanent/repair × dup/eft/heft
			cfg := DefaultChurnTrace
			if cell&2 != 0 {
				cfg.RepairAfter = 15 // 0.15 × the horizon
			}
			flags := cell&1 | cell/4<<1 | uint8(1-seed%2)<<3
			f.Add(4000+seed, uint8(31), uint8(15), uint8(3), flags, churnSeedBytes(GenerateChurnTrace(names, 100, cfg, 7000+seed), names, 100))
		}
	}
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(1), []byte{0, 0, 1, 0})                  // one task, one host, down at 0
	f.Add(int64(2), uint8(20), uint8(1), uint8(1), uint8(3), []byte{10, 0, 1, 0, 10, 1, 3, 255}) // one instant, 100×
	f.Fuzz(func(t *testing.T, seed int64, tasksB, hostsB, sitesB, flags uint8, trace []byte) {
		in := decodeChurnInstance(t, seed, tasksB, hostsB, sitesB, flags, trace)
		input := fmt.Sprintf("seed %d tasks %d hosts %d sites %d flags %d trace %v", seed, tasksB, hostsB, sitesB, flags, trace)
		run := func() (*ChurnOutcome, error) {
			type result struct {
				out *ChurnOutcome
				err error
			}
			done := make(chan result, 1)
			go func() {
				out, err := RunChurn(in.g, in.table, in.truth, in.net, in.hosts, in.trace, ChurnConfig{Replanner: in.replanner})
				done <- result{out, err}
			}()
			select {
			case r := <-done:
				return r.out, r.err
			case <-time.After(10 * time.Second):
				t.Fatalf("RunChurn still running after 10 s on %s", input)
				return nil, nil
			}
		}
		out, err := run()
		if err != nil {
			if in.someUp {
				t.Fatalf("%s: %v", input, err)
			}
			return
		}
		warm, err := run()
		if err != nil || !reflect.DeepEqual(warm, out) {
			t.Fatalf("%s: warm rerun gave %+v, %v; first run %+v", input, warm, err, out)
		}
		scratchPoolOff = true
		defer func() { scratchPoolOff = false }()
		fresh, err := run()
		if err != nil || !reflect.DeepEqual(fresh, out) {
			t.Fatalf("%s: pool-off run gave %+v, %v; pooled run %+v", input, fresh, err, out)
		}
	})
}

// twinReplanner replans every churn request twice with one built-in: as the
// executor sent it, with the run's price table and spare table, and as a
// caller outside the package could, with the public fields only (so a price
// table over its Hosts and a fresh table). Any difference is an error.
type twinReplanner struct {
	t             *testing.T
	inner         Replanner
	key           string
	spares, calls int
}

func (*twinReplanner) Name() string { return "test-twin" }

func (w *twinReplanner) Replan(req *ReplanRequest) (*Replan, error) {
	w.calls++
	if req.prices == nil {
		w.t.Errorf("%s: the executor's request carries no run price table", w.key)
	}
	if req.spare != nil {
		w.spares++
	}
	public := &ReplanRequest{Graph: req.Graph, Table: req.Table, Done: req.Done, Running: req.Running, Down: req.Down,
		Event: req.Event, Costs: req.Costs, Hosts: req.Hosts, Net: req.Net}
	want, wantErr := w.inner.Replan(public)
	var wantJSON []byte
	if wantErr == nil {
		wantJSON = tableJSONBytes(w.t, want.Table)
	}
	got, err := w.inner.Replan(req)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		w.t.Errorf("%s: executor request %v, public request %v", w.key, err, wantErr)
	case err == nil:
		if gotJSON := tableJSONBytes(w.t, got.Table); !bytes.Equal(gotJSON, wantJSON) {
			w.t.Errorf("%s: tables differ:\nexecutor %s\npublic   %s", w.key, gotJSON, wantJSON)
		}
		if got.Moved != want.Moved || !reflect.DeepEqual(got.Duplicates, want.Duplicates) {
			w.t.Errorf("%s: moved %d / %d, duplicates %+v / %+v", w.key, got.Moved, want.Moved, got.Duplicates, want.Duplicates)
		}
	}
	return got, err
}

func tableJSONBytes(t *testing.T, table *AllocationTable) []byte {
	data, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The executor's request — the run's price table, the spare table its last
// repair retired — replans exactly as the public fields alone do, under
// every built-in over the churn_golden grid, and the run it drives is the
// built-in's own.
func TestExecutorReplanRequestMatchesPublic(t *testing.T) {
	env, truth, refs, hostNames := churnGoldenEnv(t)
	twin := &twinReplanner{t: t}
	registerForTest(t, twin)
	for _, c := range churnGoldenGrid(t, env, truth, hostNames) {
		twin.inner, _ = LookupReplanner(c.replanner)
		twin.key = c.key
		got, err := RunChurn(c.g, c.table, truth, env.Net, refs, c.trace, ChurnConfig{Replanner: twin.Name()})
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		want, err := RunChurn(c.g, c.table, truth, env.Net, refs, c.trace, ChurnConfig{Replanner: c.replanner})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: twin run %+v, built-in run %+v (%v)", c.key, got, want, err)
		}
	}
	if twin.spares == 0 || twin.spares == twin.calls {
		t.Fatalf("%d of %d requests carried a spare table: the rotation went unexercised", twin.spares, twin.calls)
	}
}
