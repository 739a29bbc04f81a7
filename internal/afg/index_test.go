package afg

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

func diamondGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("ix")
	for _, id := range []TaskID{"a", "b", "c", "d"} {
		if err := g.AddTask(&Task{ID: id, Function: "f", ComputeCost: 1, OutputBytes: 7}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []Link{
		{From: "a", To: "b", Bytes: 10},
		{From: "a", To: "c"}, // falls back to a's OutputBytes
		{From: "b", To: "d"},
		{From: "c", To: "d"},
	} {
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestIndexStructureMatchesGraph(t *testing.T) {
	g := diamondGraph(t)
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != g.Len() {
		t.Fatalf("Len = %d, want %d", ix.Len(), g.Len())
	}
	// Dense order is ascending id order.
	ids := g.TaskIDs()
	for i, id := range ids {
		if ix.ID(i) != id {
			t.Fatalf("ID(%d) = %s, want %s", i, ix.ID(i), id)
		}
		if ix.Of(id) != i {
			t.Fatalf("Of(%s) = %d, want %d", id, ix.Of(id), i)
		}
		if ix.Task(i) != g.Task(id) {
			t.Fatalf("Task(%d) is not the graph's task %s", i, id)
		}
	}
	if ix.Of("nope") != -1 {
		t.Fatalf("Of(unknown) = %d, want -1", ix.Of("nope"))
	}
	// CSR adjacency mirrors Parents/Children, bytes resolved per the
	// transfer rule (explicit link bytes, else parent OutputBytes).
	for i, id := range ids {
		links := g.Children(id)
		arcs := ix.Children(i)
		if len(arcs) != len(links) {
			t.Fatalf("Children(%s): %d arcs, want %d", id, len(arcs), len(links))
		}
		for k, l := range links {
			want := l.Bytes
			if want == 0 {
				want = g.Task(l.From).OutputBytes
			}
			if ix.ID(int(arcs[k].Peer)) != l.To || arcs[k].Bytes != want {
				t.Fatalf("Children(%s)[%d] = {%s,%d}, want {%s,%d}",
					id, k, ix.ID(int(arcs[k].Peer)), arcs[k].Bytes, l.To, want)
			}
		}
		plinks := g.Parents(id)
		parcs := ix.Parents(i)
		if len(parcs) != len(plinks) || ix.NumParents(i) != len(plinks) {
			t.Fatalf("Parents(%s): %d arcs, want %d", id, len(parcs), len(plinks))
		}
		for k, l := range plinks {
			if ix.ID(int(parcs[k].Peer)) != l.From {
				t.Fatalf("Parents(%s)[%d] = %s, want %s", id, k, ix.ID(int(parcs[k].Peer)), l.From)
			}
		}
	}
}

func TestIndexTopoAndLevelsMatchMapAPIs(t *testing.T) {
	g := New("wide")
	for i := 0; i < 60; i++ {
		id := TaskID(fmt.Sprintf("t%02d", i))
		if err := g.AddTask(&Task{ID: id, Function: "f", ComputeCost: 1 + float64(i%5)}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			from := TaskID(fmt.Sprintf("t%02d", (i-1)/2))
			if err := g.AddLink(Link{From: from, To: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(ix.Topo()) {
		t.Fatalf("topo lengths differ: %d vs %d", len(order), len(ix.Topo()))
	}
	for k, i := range ix.Topo() {
		if ix.ID(int(i)) != order[k] {
			t.Fatalf("topo[%d] = %s, want %s", k, ix.ID(int(i)), order[k])
		}
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	dense := ix.Levels()
	for i, v := range dense {
		if levels[ix.ID(i)] != v { //vdce:ignore floateq dense-vs-map equivalence: both sides compute the same expression, bit identity intended
			t.Fatalf("levels[%s] = %v dense, %v map", ix.ID(i), v, levels[ix.ID(i)])
		}
	}
}

func TestIndexCacheInvalidatedByMutation(t *testing.T) {
	g := diamondGraph(t)
	ix1, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	ix2, _ := g.Index()
	if ix1 != ix2 {
		t.Fatal("Index changed across calls on an unmodified graph")
	}
	if err := g.AddTask(&Task{ID: "e", Function: "f", ComputeCost: 1}); err != nil {
		t.Fatal(err)
	}
	ix3, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix3 == ix1 {
		t.Fatal("Index not replaced by AddTask")
	}
	if ix3.Len() != 5 || ix3.Of("e") == -1 {
		t.Fatalf("rebuilt index missing new task: len=%d of(e)=%d", ix3.Len(), ix3.Of("e"))
	}
	if err := g.AddLink(Link{From: "d", To: "e"}); err != nil {
		t.Fatal(err)
	}
	ix4, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix4 == ix3 {
		t.Fatal("Index not replaced by AddLink")
	}
	if got := len(ix4.Parents(ix4.Of("e"))); got != 1 {
		t.Fatalf("rebuilt index missing new link: e has %d parents", got)
	}
}

// TestIndexConcurrentAccess: eight goroutines take the Index of one decoded
// graph and read every sorted view served from it; the race job runs it
// under -race.
func TestIndexConcurrentAccess(t *testing.T) {
	data, err := diamondGraph(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	type views struct {
		ix                  *Index
		ids, entries, exits []TaskID
		links               []Link
		enc                 []byte
	}
	done := make(chan views, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ix, err := g.Index()
			if err != nil {
				panic(err)
			}
			_ = ix.Levels()
			enc, err := g.Encode()
			if err != nil {
				panic(err)
			}
			done <- views{ix, g.TaskIDs(), g.Entries(), g.Exits(), g.Links(), enc}
		}()
	}
	first := <-done
	if !bytes.Equal(first.enc, data) {
		t.Fatalf("Encode of the decoded graph:\n%s\nwant\n%s", first.enc, data)
	}
	for w := 1; w < 8; w++ {
		v := <-done
		if v.ix != first.ix {
			t.Fatal("concurrent Index() calls returned distinct indices")
		}
		if !reflect.DeepEqual(v, first) {
			t.Fatalf("concurrent readers disagree: %+v vs %+v", v, first)
		}
	}
}
