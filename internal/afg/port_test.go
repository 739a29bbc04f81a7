package afg

import (
	"errors"
	"testing"
)

// The input-port regression suite: parent order must be explicit (ports),
// stable under JSON round-trips, and conflict-checked. This guards the bug
// where a serialised solver graph delivered (b, LU) instead of (LU, b).

func solverishGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("ports")
	for _, id := range []TaskID{"genA", "genB", "lu", "solve"} {
		if err := g.AddTask(&Task{ID: id, Function: "f", ComputeCost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Deliberately connect solve's port-1 input (genB) BEFORE its port-0
	// input would be auto-assigned; then add lu explicitly at port 0.
	if err := g.AddLink(Link{From: "genA", To: "lu", Bytes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{From: "lu", To: "solve", Bytes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{From: "genB", To: "solve", Bytes: 1}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAutoPortAssignment(t *testing.T) {
	g := solverishGraph(t)
	parents := g.Parents("solve")
	if len(parents) != 2 {
		t.Fatalf("parents = %v", parents)
	}
	if parents[0].From != "lu" || parents[0].Port != 0 {
		t.Fatalf("port 0 = %+v", parents[0])
	}
	if parents[1].From != "genB" || parents[1].Port != 1 {
		t.Fatalf("port 1 = %+v", parents[1])
	}
}

func TestPortOrderSurvivesJSONRoundTrip(t *testing.T) {
	g := solverishGraph(t)
	data, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	parents := back.Parents("solve")
	if parents[0].From != "lu" || parents[1].From != "genB" {
		t.Fatalf("round trip reordered parents: %+v", parents)
	}
	// Round-trip twice for good measure.
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back2, err := Decode(data2)
	if err != nil {
		t.Fatal(err)
	}
	parents = back2.Parents("solve")
	if parents[0].From != "lu" || parents[1].From != "genB" {
		t.Fatalf("double round trip reordered parents: %+v", parents)
	}
}

func TestExplicitPortConflict(t *testing.T) {
	g := New("conflict")
	g.AddTask(&Task{ID: "a", Function: "f"})
	g.AddTask(&Task{ID: "b", Function: "f"})
	g.AddTask(&Task{ID: "c", Function: "f"})
	if err := g.AddLink(Link{From: "a", To: "c", Port: 2}); err != nil {
		t.Fatal(err)
	}
	err := g.AddLink(Link{From: "b", To: "c", Port: 2})
	if !errors.Is(err, ErrPortConflict) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutoPortSkipsExplicitHoles(t *testing.T) {
	g := New("holes")
	for _, id := range []TaskID{"a", "b", "c", "sink"} {
		g.AddTask(&Task{ID: id, Function: "f"})
	}
	if err := g.AddLink(Link{From: "a", To: "sink", Port: 5}); err != nil {
		t.Fatal(err)
	}
	// Auto-assignment must pick a port above the highest existing one.
	if err := g.AddLink(Link{From: "b", To: "sink"}); err != nil {
		t.Fatal(err)
	}
	parents := g.Parents("sink")
	if parents[1].From != "b" || parents[1].Port != 6 {
		t.Fatalf("parents = %+v", parents)
	}
}
