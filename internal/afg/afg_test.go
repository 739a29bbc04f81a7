package afg

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic A→{B,C}→D graph with given costs.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	for _, spec := range []struct {
		id   TaskID
		cost float64
	}{{"A", 4}, {"B", 2}, {"C", 3}, {"D", 1}} {
		if err := g.AddTask(&Task{ID: spec.id, Function: "noop", ComputeCost: spec.cost}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []Link{{From: "A", To: "B", Bytes: 10}, {From: "A", To: "C", Bytes: 20}, {From: "B", To: "D"}, {From: "C", To: "D"}} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddTaskDuplicate(t *testing.T) {
	g := New("g")
	if err := g.AddTask(&Task{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	err := g.AddTask(&Task{ID: "x"})
	if !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddTaskEmptyID(t *testing.T) {
	g := New("g")
	if err := g.AddTask(&Task{}); err == nil {
		t.Fatal("expected error for empty id")
	}
}

func TestAddTaskNormalisesProcessors(t *testing.T) {
	g := New("g")
	if err := g.AddTask(&Task{ID: "x", Processors: 0}); err != nil {
		t.Fatal(err)
	}
	if g.Task("x").Processors != 1 {
		t.Fatalf("processors = %d, want 1", g.Task("x").Processors)
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := New("g")
	if err := g.AddTask(&Task{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddTask(&Task{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{From: "a", To: "a"}); !errors.Is(err, ErrSelfLink) {
		t.Fatalf("self link err = %v", err)
	}
	if err := g.AddLink(Link{From: "a", To: "zz"}); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown err = %v", err)
	}
	if err := g.AddLink(Link{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{From: "a", To: "b"}); !errors.Is(err, ErrDuplicateLink) {
		t.Fatalf("dup err = %v", err)
	}
	if err := g.AddLink(Link{From: "b", To: "a"}); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle err = %v", err)
	}
}

func TestEntriesAndExits(t *testing.T) {
	g := diamond(t)
	if e := g.Entries(); len(e) != 1 || e[0] != "A" {
		t.Fatalf("entries = %v", e)
	}
	if x := g.Exits(); len(x) != 1 || x[0] != "D" {
		t.Fatalf("exits = %v", x)
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[TaskID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, l := range g.Links() {
		if pos[l.From] >= pos[l.To] {
			t.Fatalf("order violates %s -> %s: %v", l.From, l.To, order)
		}
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// D=1; B=2+1=3; C=3+1=4; A=4+max(3,4)=8.
	want := map[TaskID]float64{"A": 8, "B": 3, "C": 4, "D": 1}
	for id, w := range want {
		if levels[id] != w { //vdce:ignore floateq hand-computed oracle: integer-valued levels are exact in float64
			t.Fatalf("level[%s] = %v, want %v", id, levels[id], w)
		}
	}
	cp, err := g.CriticalPathLength()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 8 {
		t.Fatalf("critical path = %v, want 8", cp)
	}
}

func TestTotalWork(t *testing.T) {
	g := diamond(t)
	if w := g.TotalWork(); w != 10 {
		t.Fatalf("total work = %v", w)
	}
}

func TestValidateEmpty(t *testing.T) {
	g := New("empty")
	if err := g.Validate(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	g.Task("A").Params = map[string]string{"n": "8"}
	c := g.Clone()
	c.Task("A").Params["n"] = "99"
	c.Task("A").ComputeCost = 1000
	if g.Task("A").Params["n"] != "8" {
		t.Fatal("clone shares Params map")
	}
	if g.Task("A").ComputeCost != 4 {
		t.Fatal("clone shares Task struct")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	g.Task("B").Mode = Parallel
	g.Task("B").Processors = 4
	g.Task("B").MachineType = "solaris"
	g.Task("B").Params = map[string]string{"n": "256"}
	data, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "diamond" || back.Len() != 4 {
		t.Fatalf("round trip lost structure: %s/%d", back.Name, back.Len())
	}
	b := back.Task("B")
	if b.Mode != Parallel || b.Processors != 4 || b.MachineType != "solaris" || b.Params["n"] != "256" {
		t.Fatalf("task B lost properties: %+v", b)
	}
	if len(back.Links()) != 4 {
		t.Fatalf("links = %v", back.Links())
	}
	lvl, err := back.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lvl["A"] != 8 {
		t.Fatalf("levels after round trip: %v", lvl)
	}
}

func TestDecodeRejectsCycle(t *testing.T) {
	data := []byte(`{"name":"bad","tasks":[{"id":"a","function":"f"},{"id":"b","function":"f"}],
		"links":[{"From":"a","To":"b"},{"From":"b","To":"a"}]}`)
	if _, err := Decode(data); err == nil {
		t.Fatal("expected cycle rejection")
	}
}

func TestDecodeRejectsUnknownMode(t *testing.T) {
	data := []byte(`{"name":"bad","tasks":[{"id":"a","function":"f","mode":"quantum"}]}`)
	if _, err := Decode(data); err == nil {
		t.Fatal("expected mode rejection")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{")); err == nil {
		t.Fatal("expected JSON error")
	}
}

// randomDAG builds a layered random DAG; used by property tests.
func randomDAG(rng *rand.Rand, layers, width int) *Graph {
	g := New("rand")
	var prev []TaskID
	id := 0
	for l := 0; l < layers; l++ {
		n := 1 + rng.Intn(width)
		var cur []TaskID
		for i := 0; i < n; i++ {
			tid := TaskID(string(rune('a'+l)) + "-" + string(rune('0'+i)))
			_ = id
			g.AddTask(&Task{ID: tid, Function: "noop", ComputeCost: 1 + rng.Float64()*9})
			cur = append(cur, tid)
		}
		for _, c := range cur {
			for _, p := range prev {
				if rng.Float64() < 0.5 {
					g.AddLink(Link{From: p, To: c, Bytes: int64(rng.Intn(1000))})
				}
			}
		}
		prev = cur
	}
	return g
}

// Property: topological order respects every link, and levels decrease along
// links by at least the child cost relationship level(p) >= cost(p)+level(c).
func TestPropertyTopoAndLevels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(5), 4)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := map[TaskID]int{}
		for i, tid := range order {
			pos[tid] = i
		}
		levels, err := g.Levels()
		if err != nil {
			return false
		}
		for _, l := range g.Links() {
			if pos[l.From] >= pos[l.To] {
				return false
			}
			p := g.Task(l.From)
			if levels[l.From] < p.ComputeCost+levels[l.To]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: JSON round trip preserves task count, link count, and levels.
func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(4), 3)
		data, err := g.Encode()
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil {
			return false
		}
		if back.Len() != g.Len() || len(back.Links()) != len(g.Links()) {
			return false
		}
		l1, _ := g.Levels()
		l2, _ := back.Levels()
		for id, v := range l1 {
			if d := l2[id] - v; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLevels200(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := randomDAG(rng, 20, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Levels(); err != nil {
			b.Fatal(err)
		}
	}
}
