package workload

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/afg"
)

func TestLinearSolverShape(t *testing.T) {
	g, err := LinearSolver(nil, 64, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("tasks = %d", g.Len())
	}
	if ex := g.Exits(); len(ex) != 1 || ex[0] != "check" {
		t.Fatalf("exits = %v", ex)
	}
	if en := g.Entries(); len(en) != 2 {
		t.Fatalf("entries = %v", en)
	}
	// Costs scale with n (cubic for LU).
	small, _ := LinearSolver(nil, 64, 1, false, 0)
	big, _ := LinearSolver(nil, 128, 1, false, 0)
	if big.Task("lu").ComputeCost <= small.Task("lu").ComputeCost*7 {
		t.Fatalf("LU cost scaling wrong: %v vs %v",
			small.Task("lu").ComputeCost, big.Task("lu").ComputeCost)
	}
}

func TestLinearSolverParallelMode(t *testing.T) {
	g, err := LinearSolver(nil, 64, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	lu := g.Task("lu")
	if lu.Mode != afg.Parallel || lu.Processors != 2 {
		t.Fatalf("lu = %+v", lu)
	}
}

func TestC3IScenarioShape(t *testing.T) {
	g, err := C3IScenario(nil, 4, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 6 {
		t.Fatalf("tasks = %d", g.Len())
	}
	if g.Task("correlate") == nil || g.Task("threat") == nil {
		t.Fatal("missing C3I stages")
	}
	// Sensor clamping.
	g2, err := C3IScenario(nil, 0, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Task("sensors0").Params["sensors"] != "2" {
		t.Fatalf("sensors param = %v", g2.Task("sensors0").Params)
	}
}

func TestFourierPipelineShape(t *testing.T) {
	g, err := FourierPipeline(nil, 1024, 17, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 || len(g.Exits()) != 2 {
		t.Fatalf("shape: %d tasks, exits %v", g.Len(), g.Exits())
	}
}

func TestPipelineShape(t *testing.T) {
	g := Pipeline(10, 0.5, 100)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 10 || len(g.Entries()) != 1 || len(g.Exits()) != 1 {
		t.Fatal("pipeline malformed")
	}
	cp, _ := g.CriticalPathLength()
	if cp != 5 {
		t.Fatalf("critical path = %v, want 5", cp)
	}
}

func TestForkJoinShape(t *testing.T) {
	g := ForkJoin(8, 1, 10)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 10 {
		t.Fatalf("tasks = %d", g.Len())
	}
	if len(g.Children("source")) != 8 || len(g.Parents("sink")) != 8 {
		t.Fatal("branches miswired")
	}
}

func TestLayeredRandomDeterministicAndValid(t *testing.T) {
	cfg := LayeredConfig{Layers: 6, Width: 5, Density: 0.4, MinCost: 1, MaxCost: 5, MaxBytes: 1 << 16, Seed: 42}
	a := LayeredRandom(cfg)
	b := LayeredRandom(cfg)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || len(a.Links()) != len(b.Links()) {
		t.Fatal("not deterministic")
	}
	// Every non-entry task has at least one parent by construction, so the
	// entry set is exactly layer 0.
	for _, id := range a.TaskIDs() {
		if len(a.Parents(id)) == 0 && id[:3] != "t00" {
			t.Fatalf("task %s disconnected", id)
		}
	}
}

func TestLayeredRandomClamps(t *testing.T) {
	g := LayeredRandom(LayeredConfig{Layers: 0, Width: 0, Seed: 1})
	if g.Len() != 1 {
		t.Fatalf("len = %d", g.Len())
	}
}

// Property: all generated graphs validate and have positive total work.
func TestPropertyGeneratorsValid(t *testing.T) {
	f := func(seed int64) bool {
		cfg := LayeredConfig{
			Layers: 1 + int(seed%7+7)%7, Width: 4, Density: 0.5,
			MinCost: 0.5, MaxCost: 3, MaxBytes: 1 << 12, Seed: seed,
		}
		g := LayeredRandom(cfg)
		if g.Validate() != nil || g.TotalWork() <= 0 {
			return false
		}
		levels, err := g.Levels()
		if err != nil {
			return false
		}
		cp, _ := g.CriticalPathLength()
		for _, l := range levels {
			if l > cp+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A builder whose ids collide or whose links are refused used to drop the
// error and hand back a different graph. Now the refusal surfaces: as the
// error from the builders that return one, as a panic from those that
// cannot.
func TestAppFailsLoudlyOnRefusal(t *testing.T) {
	collide := func() *app {
		a := newApp()
		a.synthetic("s000", 1, 8)
		a.synthetic("s000", 1, 8)
		return a
	}
	if g, err := collide().build("collide"); g != nil || !errors.Is(err, afg.ErrDuplicateTask) {
		t.Fatalf("build = %v, %v; want no graph and ErrDuplicateTask", g, err)
	}
	dangling := newApp()
	dangling.synthetic("a", 1, 8)
	dangling.link("ghost", "a")
	if _, err := dangling.build("dangling"); !errors.Is(err, afg.ErrUnknownTask) {
		t.Fatalf("err = %v, want ErrUnknownTask", err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), afg.ErrDuplicateTask.Error()) {
			t.Fatalf("mustBuild recovered %v, want a panic naming the duplicate id", r)
		}
	}()
	collide().mustBuild("collide")
}
