package dagen

import (
	"math"
	"testing"

	"repro/internal/afg"
)

func TestRandomExactSizeAndShape(t *testing.T) {
	for _, v := range []int{1, 2, 3, 10, 40, 120} {
		g := Random(Params{Tasks: v, CCR: 1, Alpha: 1, OutDegree: 3, Seed: int64(v)})
		if g.Len() != v {
			t.Fatalf("v=%d: got %d tasks", v, g.Len())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		if v >= 2 {
			if en := g.Entries(); len(en) != 1 {
				t.Fatalf("v=%d: entries = %v, want single entry", v, en)
			}
			if ex := g.Exits(); len(ex) != 1 {
				t.Fatalf("v=%d: exits = %v, want single exit", v, ex)
			}
		}
		if !connected(g) {
			t.Fatalf("v=%d: graph not connected", v)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	p := Params{Tasks: 50, CCR: 2, Alpha: 0.5, OutDegree: 4, Seed: 7}
	a, b := Random(p), Random(p)
	if a.Len() != b.Len() || len(a.Links()) != len(b.Links()) {
		t.Fatal("same Params produced different graphs")
	}
	al, bl := a.Links(), b.Links()
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, al[i], bl[i])
		}
	}
	if Random(Params{Tasks: 50, CCR: 2, Alpha: 0.5, OutDegree: 4, Seed: 8}).Len() != 50 {
		t.Fatal("seed must not change the task count")
	}
}

// Alpha shapes the graph: small α ⇒ deep and skinny, large α ⇒ short and
// wide. Compare realized depth (critical-path hops) across the extremes.
func TestRandomAlphaControlsDepth(t *testing.T) {
	deep := Random(Params{Tasks: 100, Alpha: 0.5, Seed: 3})
	wide := Random(Params{Tasks: 100, Alpha: 2, Seed: 3})
	if dd, dw := depth(t, deep), depth(t, wide); dd <= dw {
		t.Fatalf("alpha=0.5 depth %d not greater than alpha=2 depth %d", dd, dw)
	}
}

// CCR controls the communication volume: the mean edge cost in seconds (at
// the reference bandwidth) over the mean task cost should track the knob.
func TestRandomCCRRealized(t *testing.T) {
	for _, ccr := range []float64{0.1, 1, 5} {
		p := Params{Tasks: 300, CCR: ccr, Seed: 11}.withDefaults()
		g := Random(p)
		var comm, comp float64
		links := g.Links()
		for _, l := range links {
			comm += float64(l.Bytes) / p.CommBandwidth
		}
		for _, id := range g.TaskIDs() {
			comp += g.Task(id).ComputeCost
		}
		got := (comm / float64(len(links))) / (comp / float64(g.Len()))
		if got < ccr*0.5 || got > ccr*1.5 {
			t.Fatalf("CCR %g realized as %g", ccr, got)
		}
	}
	// CCR 0 means no data at all.
	for _, l := range Random(Params{Tasks: 50, CCR: 0, Seed: 1}).Links() {
		if l.Bytes != 0 {
			t.Fatalf("CCR=0 produced a %d-byte link", l.Bytes)
		}
	}
}

func TestSpeedFactors(t *testing.T) {
	homo := SpeedFactors(8, 0, 1)
	for _, s := range homo {
		if s != 1 {
			t.Fatalf("beta=0 must be homogeneous, got %v", homo)
		}
	}
	hetero := SpeedFactors(64, 1.5, 1)
	min, max := math.Inf(1), math.Inf(-1)
	for _, s := range hetero {
		if s <= 0 {
			t.Fatalf("non-positive speed %v", s)
		}
		min, max = math.Min(min, s), math.Max(max, s)
	}
	if max/min < 2 {
		t.Fatalf("beta=1.5 spread too narrow: [%v, %v]", min, max)
	}
}

func TestGaussianEliminationShape(t *testing.T) {
	for _, m := range []int{2, 4, 7} {
		g, err := GaussianElimination(m, Params{CCR: 1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if want := (m*m + m - 2) / 2; g.Len() != want {
			t.Fatalf("m=%d: %d tasks, want %d", m, g.Len(), want)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !connected(g) {
			t.Fatalf("m=%d: not connected", m)
		}
		// Single entry (the first pivot) and single exit (the last update).
		if en := g.Entries(); len(en) != 1 || en[0] != "p001" {
			t.Fatalf("m=%d: entries = %v", m, en)
		}
		if ex := g.Exits(); len(ex) != 1 {
			t.Fatalf("m=%d: exits = %v", m, ex)
		}
	}
	if _, err := GaussianElimination(1, Params{}); err == nil {
		t.Fatal("m=1 must error")
	}
}

func TestFFTShape(t *testing.T) {
	for points, logn := range map[int]int{2: 1, 8: 3, 16: 4} {
		g, err := FFT(points, Params{CCR: 0.5, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if want := 2*points - 1 + points*logn; g.Len() != want {
			t.Fatalf("n=%d: %d tasks, want %d", points, g.Len(), want)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !connected(g) {
			t.Fatalf("n=%d: not connected", points)
		}
		if en := g.Entries(); len(en) != 1 || en[0] != "c00-0000" {
			t.Fatalf("n=%d: entries = %v", points, en)
		}
		if ex := g.Exits(); len(ex) != points {
			t.Fatalf("n=%d: %d exits, want %d", points, len(ex), points)
		}
	}
	for _, bad := range []int{0, 1, 3, 12} {
		if _, err := FFT(bad, Params{}); err == nil {
			t.Fatalf("n=%d must error", bad)
		}
	}
}

// TestScaleMatchesWorkloadHistory pins the moved Scale generator to its
// historical output shape: the POLICY experiment's makespans depend on these
// graphs bit for bit.
func TestScaleDeterministicShape(t *testing.T) {
	g := Scale(1000, 25, 12, 42)
	if g.Len() != 1000 {
		t.Fatalf("tasks = %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	h := Scale(1000, 25, 12, 42)
	if len(g.Links()) != len(h.Links()) {
		t.Fatal("Scale not deterministic")
	}
}

// connected reports whether the graph is one weakly-connected component.
func connected(g *afg.Graph) bool {
	ids := g.TaskIDs()
	if len(ids) <= 1 {
		return len(ids) == 1
	}
	seen := map[afg.TaskID]bool{ids[0]: true}
	stack := []afg.TaskID{ids[0]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.Children(cur) {
			if !seen[l.To] {
				seen[l.To] = true
				stack = append(stack, l.To)
			}
		}
		for _, l := range g.Parents(cur) {
			if !seen[l.From] {
				seen[l.From] = true
				stack = append(stack, l.From)
			}
		}
	}
	return len(seen) == len(ids)
}

// depth is the critical-path hop count (longest chain of links).
func depth(t *testing.T, g *afg.Graph) int {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	d := map[afg.TaskID]int{}
	max := 0
	for _, id := range order {
		for _, l := range g.Parents(id) {
			if d[l.From]+1 > d[id] {
				d[id] = d[l.From] + 1
			}
		}
		if d[id] > max {
			max = d[id]
		}
	}
	return max
}
