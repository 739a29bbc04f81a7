package afg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// decodePerLink is the ingest path Decode had before Build: one AddTask per
// task and one AddLinkExact — one reachability walk — per link, then
// Validate. It stays as the test-only oracle the bulk path is held against.
func decodePerLink(data []byte) (*Graph, error) {
	var w wireGraph
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("afg: decode: %w", err)
	}
	g := New(w.Name)
	for _, wt := range w.Tasks {
		t, err := wt.task()
		if err != nil {
			return nil, err
		}
		if err := g.AddTask(t); err != nil {
			return nil, err
		}
	}
	for _, l := range w.Links {
		if err := g.AddLinkExact(l); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// refusalDocs is one document per reason an AFG can be refused, each with a
// single defect, so both ingest paths must name the same error.
var refusalDocs = []struct {
	name string
	doc  string
	want error
}{
	{"cycle", `{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],
		"links":[{"From":"a","To":"b"},{"From":"b","To":"c","Port":0},{"From":"c","To":"a"}]}`, ErrCycle},
	{"self link", `{"tasks":[{"id":"a"}],"links":[{"From":"a","To":"a"}]}`, ErrSelfLink},
	{"unknown source", `{"tasks":[{"id":"a"}],"links":[{"From":"zz","To":"a"}]}`, ErrUnknownTask},
	{"unknown destination", `{"tasks":[{"id":"a"}],"links":[{"From":"a","To":"zz"}]}`, ErrUnknownTask},
	{"duplicate task", `{"tasks":[{"id":"a"},{"id":"a"}]}`, ErrDuplicateTask},
	{"duplicate link", `{"tasks":[{"id":"a"},{"id":"b"}],
		"links":[{"From":"a","To":"b"},{"From":"a","To":"b","Port":1}]}`, ErrDuplicateLink},
	{"port conflict", `{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],
		"links":[{"From":"a","To":"c","Port":2},{"From":"b","To":"c","Port":2}]}`, ErrPortConflict},
	{"empty", `{"name":"nothing"}`, ErrEmpty},
	{"empty task id", `{"tasks":[{"id":""}]}`, errEmptyID},
	{"unknown mode", `{"tasks":[{"id":"a","mode":"quantum"}]}`, errUnknownMode},
}

func TestDecodeRefusalsAreTyped(t *testing.T) {
	for _, c := range refusalDocs {
		g, err := Decode([]byte(c.doc))
		if g != nil || !errors.Is(err, c.want) {
			t.Errorf("%s: Decode = %v, %v; want no graph and %v", c.name, g, err, c.want)
		}
		if _, err := decodePerLink([]byte(c.doc)); !errors.Is(err, c.want) {
			t.Errorf("%s: per-link oracle = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestBuildIsAllOrNothing(t *testing.T) {
	tasks := []*Task{{ID: "a"}, {ID: "b"}}
	g, err := Build("g", tasks, []Link{{From: "a", To: "b"}, {From: "b", To: "a"}})
	if g != nil || !errors.Is(err, ErrCycle) {
		t.Fatalf("Build = %v, %v; want no graph and ErrCycle", g, err)
	}

	// A refused document leaves the receiver as it was, cached Index included.
	keep := diamond(t)
	ix, err := keep.Index()
	if err != nil {
		t.Fatal(err)
	}
	before, err := keep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := keep.UnmarshalJSON([]byte(refusalDocs[0].doc)); !errors.Is(err, ErrCycle) {
		t.Fatalf("UnmarshalJSON = %v, want ErrCycle", err)
	}
	after, err := keep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := keep.Index(); !bytes.Equal(before, after) || again != ix {
		t.Fatal("a refused UnmarshalJSON changed the receiver")
	}
}

func TestBuildAcceptsNoTasks(t *testing.T) {
	g, err := Build("none", nil, nil)
	if err != nil || g.Len() != 0 {
		t.Fatalf("Build = %v, %v", g, err)
	}
	if err := g.Validate(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Validate = %v, want ErrEmpty", err)
	}
}

func TestBuildHonoursPortsAndNormalises(t *testing.T) {
	// Ports arrive out of order and with a hole; Processors below the floor.
	g, err := Build("ports", []*Task{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "sink", Processors: -3}}, []Link{
		{From: "c", To: "sink", Port: 5},
		{From: "a", To: "sink", Port: 0},
		{From: "b", To: "sink", Port: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range g.Parents("sink") {
		got = append(got, fmt.Sprintf("%s@%d", l.From, l.Port))
	}
	if fmt.Sprint(got) != "[a@0 b@2 c@5]" {
		t.Fatalf("parents = %v", got)
	}
	if p := g.Task("sink").Processors; p != 1 {
		t.Fatalf("processors = %d, want 1", p)
	}
}

// TestDecodeKeepsValidatedIndex: the Kahn pass that refused or accepted the
// document is the Index the first scheduler walk gets — not a second build —
// and later mutations still invalidate it.
func TestDecodeKeepsValidatedIndex(t *testing.T) {
	data, err := diamond(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	built := g.idx
	g.mu.Unlock()
	if built == nil {
		t.Fatal("Decode dropped the Index it validated with")
	}
	ix1, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	ix2, _ := g.Index()
	if ix1 != built || ix2 != built {
		t.Fatal("Index() after Decode rebuilt the dense view")
	}
	if err := g.AddTask(&Task{ID: "late"}); err != nil {
		t.Fatal(err)
	}
	ix3, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix3 == built || ix3.Of("late") == -1 {
		t.Fatal("AddTask after Decode did not invalidate the handed-over Index")
	}
	if err := g.AddLink(Link{From: "D", To: "late"}); err != nil {
		t.Fatal(err)
	}
	ix4, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix4 == ix3 || ix4.NumParents(ix4.Of("late")) != 1 {
		t.Fatal("AddLink after Decode did not invalidate the Index")
	}

	// Decoding into a graph that already has a cached Index replaces it.
	if err := g.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	ix5, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix5 == ix4 || ix5.Len() != 4 {
		t.Fatalf("UnmarshalJSON over a used graph kept a stale Index (len %d)", ix5.Len())
	}
}

// layeredWire is an n-task wire document: ranks of `width` tasks, every task
// reading three tasks of the previous rank on ports 0..2.
func layeredWire(n, width int, seed int64) wireGraph {
	rng := rand.New(rand.NewSource(seed))
	w := wireGraph{Name: fmt.Sprintf("layered-%d", n)}
	id := func(i int) TaskID { return TaskID(fmt.Sprintf("t%06d", i)) }
	for i := 0; i < n; i++ {
		w.Tasks = append(w.Tasks, wireTask{ID: id(i), Function: "f", ComputeCost: 1 + rng.Float64()})
		if i < width {
			continue
		}
		base := (i/width - 1) * width
		for port, k := range rng.Perm(width)[:3] {
			w.Links = append(w.Links, Link{From: id(base + k), To: id(i), Bytes: int64(rng.Intn(1 << 16)), Port: port})
		}
	}
	return w
}

// TestDecodeRefusesLargeCycleInBoundedTime: a 50k-task chain with 200k
// forward chords, closed into a ring by the document's last link. With one
// reachability walk per link every chord walked the chain to its end before
// the last link could be refused — half an hour for this document; one Kahn
// pass answers in about a second. The 10 s limit sits between the two
// with room on both sides, so it bounds the algorithm rather than timing the
// machine.
func TestDecodeRefusesLargeCycleInBoundedTime(t *testing.T) {
	if testing.Short() || underRace {
		t.Skip("50k-task document")
	}
	const n, chords = 50_000, 200_000
	rng := rand.New(rand.NewSource(1))
	w := wireGraph{Name: "ring"}
	id := func(i int) TaskID { return TaskID(fmt.Sprintf("t%05d", i)) }
	in := make([]int, n)
	link := func(from, to int) {
		w.Links = append(w.Links, Link{From: id(from), To: id(to), Port: in[to]})
		in[to]++
	}
	for i := 0; i < n; i++ {
		w.Tasks = append(w.Tasks, wireTask{ID: id(i), Function: "f"})
	}
	for i := 0; i+1 < n; i++ {
		link(i, i+1)
	}
	seen := make(map[[2]int]bool, chords)
	for len(seen) < chords {
		from := rng.Intn(n - 2)
		to := from + 2 + rng.Intn(n-from-2)
		if !seen[[2]int{from, to}] {
			seen[[2]int{from, to}] = true
			link(from, to)
		}
	}
	link(n-1, 0)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Decode(data)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCycle) {
			t.Fatalf("err = %v, want ErrCycle", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("decode of a 50k-task ring still running after 10s")
	}
}

var underRace bool // set by race_test.go when the race detector is on

var benchGraph *Graph

// BenchmarkDecode reports ingest cost per task at three sizes, so the slope
// — linear in the document, not quadratic in its links — is readable.
func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			data, err := json.MarshalIndent(layeredWire(n, 50, 1), "", "  ")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchGraph, err = Decode(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/task")
		})
	}
}
