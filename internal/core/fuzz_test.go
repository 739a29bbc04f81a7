package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/site"
	"repro/internal/tasklib"
)

// hashRegistry holds one task, fuzz.hash, whose output is a digest of its
// task id and its inputs in input-port order: a lost, duplicated, swapped
// or misrouted delivery anywhere upstream changes every exit it reaches.
func hashRegistry() *tasklib.Registry {
	reg := tasklib.NewRegistry()
	if err := reg.Register(tasklib.Spec{
		Name: "fuzz.hash", Library: "fuzz",
		BaseTime: 0.001, MemReq: 1024, OutputBytes: 64,
		Fn: func(ctx context.Context, args tasklib.Args) (tasklib.Value, error) {
			h := sha256.New()
			fmt.Fprintf(h, "%s|%d", args.Param("id", ""), len(args.Inputs))
			for _, in := range args.Inputs {
				fmt.Fprintf(h, "|%s", in.Text)
			}
			return tasklib.TextValue(hex.EncodeToString(h.Sum(nil))), nil
		},
	}); err != nil {
		panic(err)
	}
	return reg
}

// hashGraph is a dagen random graph of 2–17 tasks over fuzz.hash, each task
// naming itself in its params.
func hashGraph(tasks, shape, seed byte) (*afg.Graph, error) {
	g := dagen.Random(dagen.Params{
		Tasks:     2 + int(tasks%16),
		CCR:       []float64{0, 0.5, 2}[shape%3],
		Alpha:     []float64{0.5, 1, 2}[shape/3%3],
		OutDegree: 1 + int(shape/9%3),
		Seed:      int64(seed),
	})
	var ts []*afg.Task
	for _, id := range g.TaskIDs() {
		task := g.Task(id).Clone()
		task.Function, task.Params = "fuzz.hash", map[string]string{"id": string(id)}
		ts = append(ts, task)
	}
	return afg.Build(g.Name, ts, g.Links())
}

// FuzzRuntime holds the runtime to a serial evaluation through values. The
// bytes choose a small dagen graph over fuzz.hash, a policy, one or two
// sites, the Data Manager mode, a set of down hosts (never every local
// one) and whether a monitoring round reports them before the run. Every
// run must succeed and its exit outputs must equal, byte for byte, those of
// serialExits. Run the smoke in CI with:
//
//	go test -run=NONE -fuzz=FuzzRuntime -fuzztime=10s ./internal/core
func FuzzRuntime(f *testing.F) {
	f.Add(byte(6), byte(4), byte(1), byte(0), byte(0), byte(0))
	f.Add(byte(9), byte(10), byte(2), byte(3), byte(1), byte(0x11))
	f.Add(byte(15), byte(22), byte(3), byte(7), byte(3), byte(0x23))
	f.Add(byte(4), byte(0), byte(4), byte(8), byte(5), byte(0x71))
	reg := hashRegistry()
	policies := scheduler.Policies()
	f.Fuzz(func(t *testing.T, tasks, shape, seed, policy, mode, down byte) {
		g, err := hashGraph(tasks, shape, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := site.Config{Policy: policies[int(policy)%len(policies)], UseSockets: mode&2 != 0}
		env := NewEnvironment(Options{Seed: 5, Registry: reg, SiteConfig: cfg})
		sites := []struct {
			name  string
			hosts int
			down  byte // bit k marks host k down
		}{{"syracuse", 4, down & 0x0f}, {"rome", 3, down >> 4 & 0x07}}
		if sites[0].down == 0x0f {
			sites[0].down = 0x0e // a local host always survives
		}
		if mode&1 == 0 {
			sites = sites[:1]
		}
		for _, s := range sites {
			m, err := env.AddSite(s.name, s.hosts)
			if err != nil {
				t.Fatal(err)
			}
			for k, h := range m.Pool.Names() {
				if s.down&(1<<k) != 0 {
					m.Pool.Get(h).SetDown(true)
				}
			}
		}
		if mode&4 != 0 {
			env.TickMonitors()
		}
		res, _, err := env.Submit(context.Background(), "syracuse", g)
		if err != nil {
			t.Fatalf("%s under %s: %v", g.Name, cfg.Policy, err)
		}
		want := serialExits(t, reg, g)
		for id, got := range encodeExits(t, g, runtime.ExitOutputs(g, res)) {
			if !bytes.Equal(got, want[id]) {
				t.Errorf("%s under %s: exit %s differs from the serial evaluation", g.Name, cfg.Policy, id)
			}
		}
	})
}
