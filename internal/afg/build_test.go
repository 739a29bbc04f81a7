package afg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// perLink is the graph this package kept before a Graph was its Index:
// id-keyed task and link maps, one set of insertion rules per task and per
// link, and one reachability walk per link. It stays as the test-only
// oracle Decode (FuzzDecode) and AddTask/AddLink (FuzzGraphIndex) are held
// against.
type perLink struct {
	name  string
	added []TaskID // task ids in insertion order
	tasks map[TaskID]*Task
	succ  map[TaskID][]Link // outgoing links by From, in insertion order
	pred  map[TaskID][]Link // incoming links by To, in port order
}

func newPerLink(name string) *perLink {
	return &perLink{name: name, tasks: map[TaskID]*Task{}, succ: map[TaskID][]Link{}, pred: map[TaskID][]Link{}}
}

func (m *perLink) addTask(t *Task) error {
	if t.ID == "" {
		return errEmptyID
	}
	if _, ok := m.tasks[t.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
	}
	if t.Processors < 1 {
		t.Processors = 1
	}
	m.added = append(m.added, t.ID)
	m.tasks[t.ID] = t
	return nil
}

// addLink refuses a link that closes a cycle first, then a self link, an
// unknown endpoint, a repeated pair and a taken port. With autoPort a zero
// Port on a task that has parents becomes the next free port.
func (m *perLink) addLink(l Link, autoPort bool) error {
	if l.From != l.To && m.reachable(l.To, l.From) {
		return fmt.Errorf("%w: adding %s -> %s", ErrCycle, l.From, l.To)
	}
	if l.From == l.To {
		return fmt.Errorf("%w: %q", ErrSelfLink, l.From)
	}
	for _, id := range []TaskID{l.From, l.To} {
		if _, ok := m.tasks[id]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownTask, id)
		}
	}
	for _, e := range m.succ[l.From] {
		if e.To == l.To {
			return fmt.Errorf("%w: %s -> %s", ErrDuplicateLink, l.From, l.To)
		}
	}
	in := m.pred[l.To]
	if autoPort && l.Port == 0 && len(in) > 0 {
		if next := in[len(in)-1].Port + 1; next > 0 {
			l.Port = next
		}
	}
	at := len(in)
	for at > 0 && in[at-1].Port > l.Port {
		at--
	}
	if at > 0 && in[at-1].Port == l.Port {
		return fmt.Errorf("%w: port %d on %s already connected (from %s)",
			ErrPortConflict, l.Port, l.To, in[at-1].From)
	}
	m.succ[l.From] = append(m.succ[l.From], l)
	m.pred[l.To] = slices.Insert(in, at, l)
	return nil
}

// reachable reports whether dst, another task than src, is reachable from
// src by links.
func (m *perLink) reachable(src, dst TaskID) bool {
	seen := map[TaskID]bool{src: true}
	stack := []TaskID{src}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range m.succ[cur] {
			if e.To == dst {
				return true
			}
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// sorted returns the tasks in id order and the links by source id, each
// source's in insertion order: the order an Index holds them in.
func (m *perLink) sorted() ([]*Task, []Link) {
	var tasks []*Task
	var links []Link
	for _, id := range m.ids() {
		tasks = append(tasks, m.tasks[id])
		links = append(links, m.succ[id]...)
	}
	return tasks, links
}

// ids returns the task ids in sorted order. It sorts the insertion order,
// not a map walk, so the fuzzers' coverage of the sort is deterministic.
func (m *perLink) ids() []TaskID {
	ids := slices.Clone(m.added)
	slices.Sort(ids)
	return ids
}

// encode is the model's document, json.MarshalIndent over its wireGraph.
func (m *perLink) encode() ([]byte, error) {
	tasks, links := m.sorted()
	w := wireGraph{Name: m.name, Links: links}
	for _, t := range tasks {
		w.Tasks = append(w.Tasks, wireTaskOf(t))
	}
	return json.MarshalIndent(w, "", "  ")
}

// decodePerLink is the ingest path Decode had before Build: json.Unmarshal,
// then one addTask per task and one exact-port addLink — one reachability
// walk — per link, then the empty-graph check.
func decodePerLink(data []byte) (*perLink, error) {
	var w wireGraph
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("afg: decode: %w", err)
	}
	m := newPerLink(w.Name)
	for _, wt := range w.Tasks {
		t, err := wt.task()
		if err != nil {
			return nil, err
		}
		if err := m.addTask(t); err != nil {
			return nil, err
		}
	}
	for _, l := range w.Links {
		if err := m.addLink(l, false); err != nil {
			return nil, err
		}
	}
	if len(m.tasks) == 0 {
		return nil, ErrEmpty
	}
	return m, nil
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

// deepMember is a document whose one unknown member nests n arrays inside
// the top-level object: n+1 levels in all.
func deepMember(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"tasks":[{"id":"a"}]}`
}

// quirkDocs are the documents on which a hand-written decoder most easily
// parts from encoding/json, one quirk each. want is nil for a graph, errSyntax
// or errWrongType for bytes encoding/json refused, or the graph sentinel.
// Both ingest paths must agree on each (TestDecodeQuirks), and FuzzDecode
// starts from them.
var quirkDocs = []struct {
	name string
	doc  string
	want error
}{
	{"folded keys, long s", "{\"NAME\":\"n\",\"Tasks\":[{\"ID\":\"a\",\"Function\":\"f\",\"Mode\":\"parallel\"," +
		"\"proce\xc5\xbf\xc5\xbfors\":3,\"MACHINETYPE\":\"m\",\"computecost\":2.5,\"MemReq\":7,\"OUTPUTBYTES\":9," +
		"\"PARAMS\":{\"K\":\"v\"}},{\"id\":\"b\"}],\"links\":[{\"from\":\"a\",\"to\":\"b\",\"bytes\":5,\"port\":0}]}", nil},
	{"folded key, otherwise plain", `{"tasks":[{"id":"a","Function":"f"}]}`, nil},
	{"escaped folded key, Kelvin sign", `{"tasks":[{"id":"a"},{"id":"b"}],"lin\u212as":[{"From":"a","To":"b"}]}`, nil},
	{"unknown nested member", `{"tasks":[{"id":"a","extra":{"deep":[1,-2.5e3,{"x":null,"y":[true,false,"\u00e9"]}]}}],"meta":{}}`, nil},
	{"unknown member, bad syntax", `{"tasks":[{"id":"a"}],"meta":[1,]}`, errSyntax},
	{"null for each field", `{"name":null,"tasks":[{"id":"a","function":null,"mode":null,"processors":null,"machineType":null,` +
		`"computeCost":null,"memReq":null,"outputBytes":null,"params":null},{"id":"b","params":{"k":null}}],` +
		`"links":[{"From":"a","To":"b","Bytes":null,"Port":null}]}`, nil},
	{"null links", `{"tasks":[{"id":"a"}],"links":null}`, nil},
	{"null after tasks", `{"tasks":[{"id":"a"}],"tasks":null}`, ErrEmpty},
	{"null task", `{"tasks":[null]}`, errEmptyID},
	{"repeated tasks decode over the old elements", `{"tasks":[{"id":"a","function":"f","computeCost":2},{"id":"b"}],"tasks":[{"id":"c"}]}`, nil},
	{"repeated tasks regrow into old capacity", `{"tasks":[{"id":"a","function":"f"},{"id":"b","function":"g"}],` +
		`"tasks":[{"id":"c"}],"tasks":[{"id":"d"},{"id":"e"}]}`, nil},
	{"empty tasks drop the old elements", `{"tasks":[{"id":"a","function":"f"}],"tasks":[],"tasks":[{"id":"b"}]}`, nil},
	{"repeated params merge", `{"tasks":[{"id":"a","params":{"x":"1","y":"2"},"params":{"y":"3","z":"4"}}]}`, nil},
	{"null params, then params", `{"tasks":[{"id":"a","params":{"x":"1"},"params":null,"params":{"z":"4"}}]}`, nil},
	{"integer 1.0", `{"tasks":[{"id":"a","processors":1.0}]}`, errWrongType},
	{"integer 1e2", `{"tasks":[{"id":"a","memReq":1e2}]}`, errWrongType},
	{"int64 overflow", `{"tasks":[{"id":"a","outputBytes":9223372036854775808}]}`, errWrongType},
	{"int64 minimum", `{"tasks":[{"id":"a","memReq":-9223372036854775808}],"links":null}`, nil},
	{"leading zero", `{"tasks":[{"id":"a","processors":01}]}`, errSyntax},
	{"fraction without digits", `{"tasks":[{"id":"a","computeCost":1.}]}`, errSyntax},
	{"empty params and links", `{"tasks":[{"id":"a","params":{}}],"links":[]}`, nil},
	{"float 1e400", `{"tasks":[{"id":"a","computeCost":1e400}]}`, errWrongType},
	{"float 1e2 and underflow", `{"tasks":[{"id":"a","computeCost":1e2},{"id":"b","computeCost":-1e-400}]}`, nil},
	{"string for an integer", `{"tasks":[{"id":"a","processors":"3"}]}`, errWrongType},
	{"object for a string", `{"name":{"a":1},"tasks":[{"id":"a"}]}`, errWrongType},
	{"number for a task", `{"tasks":[1]}`, errWrongType},
	{"wrong type before a syntax error", `{"tasks":[{"id":5}],"x":}`, errSyntax},
	{"depth 10000", deepMember(9999), nil},
	{"depth 10001", deepMember(10000), errSyntax},
	{"lone high surrogate", `{"tasks":[{"id":"a\ud800"}]}`, nil},
	{"lone low surrogate", `{"tasks":[{"id":"\udc00x"}]}`, nil},
	{"high surrogate, then a letter escape", `{"tasks":[{"id":"\ud800\u0041"}]}`, nil},
	{"surrogate pair", `{"tasks":[{"id":"\ud83d\ude00"}]}`, nil},
	{"invalid UTF-8", "{\"tasks\":[{\"id\":\"a\xff\xfe\xed\xa0\x80\"}]}", nil},
	{"invalid UTF-8 key", "{\"tasks\":[{\"id\":\"a\",\"\xff\":1}]}", nil},
	{"raw control character", "{\"tasks\":[{\"id\":\"a\tb\"}]}", errSyntax},
	{"invalid escape", `{"tasks":[{"id":"a\'"}]}`, errSyntax},
	{"trailing data", `{"tasks":[{"id":"a"}]} x`, errSyntax},
	{"second document", `{"tasks":[{"id":"a"}]}{}`, errSyntax},
	{"trailing space", "{\"tasks\":[{\"id\":\"a\"}]} \r\n\t", nil},
	{"empty input", ``, errSyntax},
	{"only space", " \n", errSyntax},
	{"top-level null", `null`, ErrEmpty},
	{"top-level array", `[]`, errWrongType},
	{"top-level string", `"x"`, errWrongType},
}

// TestDecodeQuirks holds each quirk document to its verdict on both ingest
// paths: Decode's typed error and encoding/json's (a *json.SyntaxError for
// errSyntax, a *json.UnmarshalTypeError for errWrongType), and equal bytes
// for an accepted document.
func TestDecodeQuirks(t *testing.T) {
	for _, c := range quirkDocs {
		t.Run(c.name, func(t *testing.T) {
			g, err := Decode([]byte(c.doc))
			if !errors.Is(err, c.want) || (err == nil) != (g != nil) {
				t.Fatalf("Decode = %v; want %v", err, c.want)
			}
			_, oerr := decodePerLink([]byte(c.doc))
			if refusalClass(oerr) != refusalClass(c.want) || c.want != errSyntax && c.want != errWrongType && !errors.Is(oerr, c.want) {
				t.Fatalf("per-link oracle = %v; want %v", oerr, c.want)
			}
			checkAgainstPerLink(t, []byte(c.doc))
		})
	}
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

	// A refused document leaves the receiver as it was, Index included.
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
// and later mutations replace it.
func TestDecodeKeepsValidatedIndex(t *testing.T) {
	data, err := diamond(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	built := g.ix
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
		t.Fatal("AddTask after Decode did not replace the handed-over Index")
	}
	if err := g.AddLink(Link{From: "D", To: "late"}); err != nil {
		t.Fatal(err)
	}
	ix4, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix4 == ix3 || ix4.NumParents(ix4.Of("late")) != 1 {
		t.Fatal("AddLink after Decode did not replace the Index")
	}

	// Decoding into a graph that already has an Index replaces it.
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
// reading `parents` tasks of the previous rank on ports 0..parents-1.
func layeredWire(n, width, parents int, seed int64) wireGraph {
	rng := rand.New(rand.NewSource(seed))
	w := wireGraph{Name: fmt.Sprintf("layered-%d", n)}
	id := func(i int) TaskID { return TaskID(fmt.Sprintf("t%06d", i)) }
	for i := 0; i < n; i++ {
		w.Tasks = append(w.Tasks, wireTask{ID: id(i), Function: "f", ComputeCost: 1 + rng.Float64()})
		if i < width {
			continue
		}
		base := (i/width - 1) * width
		for port, k := range rng.Perm(width)[:parents] {
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

// TestDecodeRefusesHostileFanInInBoundedTime: 100,000 links into one task
// on descending ports, then a last link that repeats port 1. A replay that
// inserts each parent into a port-ordered list copies the whole list at
// every link — a minute for this document; refusal's one map probe a rule
// names the conflict in well under a second. The 10 s limit bounds the
// algorithm, as in TestDecodeRefusesLargeCycleInBoundedTime.
func TestDecodeRefusesHostileFanInInBoundedTime(t *testing.T) {
	if testing.Short() || underRace {
		t.Skip("100k-link document")
	}
	const n = 100_000
	w := wireGraph{Name: "fan-in", Tasks: []wireTask{{ID: "sink", Function: "f"}}}
	for k := 0; k <= n; k++ {
		id := TaskID(fmt.Sprintf("s%06d", k))
		w.Tasks = append(w.Tasks, wireTask{ID: id, Function: "f"})
		w.Links = append(w.Links, Link{From: id, To: "sink", Port: max(n-k, 1)})
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Decode(data)
		done <- err
	}()
	const want = "afg: input port already connected: port 1 on sink already connected (from s099999)"
	select {
	case err := <-done:
		if !errors.Is(err, ErrPortConflict) || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("decode of a 100k-link fan-in still running after 10s")
	}
}

// TestDecodeAllocatesNothingPerLink: two documents with the same tasks, one
// with three times the other's links, decode in allocation counts that
// differ by a small constant — no allocation is made per link — and
// TaskIDs on the decoded graph allocates its copy alone.
func TestDecodeAllocatesNothingPerLink(t *testing.T) {
	allocs := func(parents int) (float64, *Graph) {
		data, err := json.Marshal(layeredWire(2000, 50, parents, 1))
		if err != nil {
			t.Fatal(err)
		}
		var g *Graph
		return testing.AllocsPerRun(5, func() {
			if g, err = Decode(data); err != nil {
				t.Fatal(err)
			}
		}), g
	}
	one, _ := allocs(1)
	three, g := allocs(3)
	if three-one > 8 || one-three > 8 {
		t.Errorf("Decode allocs: %v with 1 parent a task, %v with 3", one, three)
	}
	if n := testing.AllocsPerRun(5, func() { _ = g.TaskIDs() }); n != 1 {
		t.Errorf("TaskIDs allocs = %v, want 1", n)
	}
}

var underRace bool // set by race_test.go when the race detector is on

var benchBytes []byte

// BenchmarkEncode reports Encode's cost per task on BenchmarkDecode's
// layered documents.
func BenchmarkEncode(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			w := layeredWire(n, 50, 3, 1)
			tasks := make([]*Task, len(w.Tasks))
			for i, wt := range w.Tasks {
				t, err := wt.task()
				if err != nil {
					b.Fatal(err)
				}
				tasks[i] = t
			}
			g, err := Build(w.Name, tasks, w.Links)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchBytes, err = g.Encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/task")
		})
	}
}

// twoDefectDocs are documents with more than one defect, each with the one
// refusal Decode must name: task defects before link defects; among links
// the earliest defective one in wire order; within one link self, unknown
// source, unknown destination, duplicate, port conflict; and a cycle only
// for a document with no other defect. oracleDiffers marks the documents
// on which the per-link oracle names another defect: it refuses a cycle at
// the link that closes it, and reads each task's mode just before inserting
// the task.
var twoDefectDocs = []struct {
	name          string
	doc           string
	want          string
	oracleDiffers bool
}{
	{"duplicate before unknown", `{"tasks":[{"id":"a"},{"id":"b"}],
		"links":[{"From":"a","To":"b"},{"From":"a","To":"b","Port":1},{"From":"a","To":"zz"}]}`,
		`afg: duplicate link: a -> b`, false},
	{"unknown before duplicate", `{"tasks":[{"id":"a"},{"id":"b"}],
		"links":[{"From":"a","To":"zz"},{"From":"a","To":"b"},{"From":"a","To":"b","Port":1}]}`,
		`afg: unknown task id: "zz"`, false},
	{"port conflict before self", `{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],
		"links":[{"From":"a","To":"c","Port":2},{"From":"b","To":"c","Port":2},{"From":"a","To":"a"}]}`,
		`afg: input port already connected: port 2 on c already connected (from a)`, false},
	{"self before port conflict", `{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],
		"links":[{"From":"b","To":"b"},{"From":"a","To":"c","Port":2},{"From":"b","To":"c","Port":2}]}`,
		`afg: link from a task to itself: "b"`, false},
	{"both endpoints unknown", `{"tasks":[{"id":"a"}],"links":[{"From":"yy","To":"zz"}]}`,
		`afg: unknown task id: "yy"`, false},
	{"self link on an unknown task", `{"tasks":[{"id":"a"}],"links":[{"From":"zz","To":"zz"}]}`,
		`afg: link from a task to itself: "zz"`, false},
	{"duplicate on a taken port", `{"tasks":[{"id":"a"},{"id":"c"}],
		"links":[{"From":"a","To":"c","Port":0},{"From":"a","To":"c","Port":0}]}`,
		`afg: duplicate link: a -> c`, false},
	{"third link on one port", `{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"},{"id":"d"}],
		"links":[{"From":"c","To":"d","Port":1},{"From":"b","To":"d","Port":1},{"From":"a","To":"d","Port":1}]}`,
		`afg: input port already connected: port 1 on d already connected (from c)`, false},
	{"conflict behind a lower port", `{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"},{"id":"d"}],
		"links":[{"From":"c","To":"d","Port":3},{"From":"b","To":"d","Port":1},{"From":"a","To":"d","Port":3}]}`,
		`afg: input port already connected: port 3 on d already connected (from c)`, false},
	{"duplicate task before empty id", `{"tasks":[{"id":"a"},{"id":"a"},{"id":""}]}`,
		`afg: duplicate task id: "a"`, false},
	{"empty id before duplicate task", `{"tasks":[{"id":"b"},{"id":""},{"id":"b"}]}`,
		`afg: empty task id`, false},
	{"task defect before link defect", `{"tasks":[{"id":"a"},{"id":"a"}],"links":[{"From":"a","To":"zz"}]}`,
		`afg: duplicate task id: "a"`, false},
	{"unknown mode before duplicate task", `{"tasks":[{"id":"a"},{"id":"a"},{"id":"b","mode":"quantum"}]}`,
		`afg: task "b": unknown mode "quantum"`, true},
	{"cycle and a later duplicate", `{"tasks":[{"id":"a"},{"id":"b"}],
		"links":[{"From":"a","To":"b"},{"From":"b","To":"a"},{"From":"a","To":"b","Port":1}]}`,
		`afg: duplicate link: a -> b`, true},
	{"cycle and a later unknown endpoint", `{"tasks":[{"id":"a"},{"id":"b"}],
		"links":[{"From":"a","To":"b"},{"From":"b","To":"a"},{"From":"a","To":"zz"}]}`,
		`afg: unknown task id: "zz"`, true},
	{"cycle and a later port conflict", `{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],
		"links":[{"From":"a","To":"b"},{"From":"b","To":"a"},{"From":"c","To":"b"}]}`,
		`afg: input port already connected: port 0 on b already connected (from a)`, true},
	{"cycle and a later self link", `{"tasks":[{"id":"a"},{"id":"b"}],
		"links":[{"From":"a","To":"b"},{"From":"b","To":"a"},{"From":"b","To":"b"}]}`,
		`afg: link from a task to itself: "b"`, true},
	{"cycle and an earlier duplicate task", `{"tasks":[{"id":"a"},{"id":"b"},{"id":"b"}],
		"links":[{"From":"a","To":"b"},{"From":"b","To":"a"}]}`,
		`afg: duplicate task id: "b"`, true},
}

// TestRefusalNamesEarliestDefect pins the exact refusal, text included, of
// every twoDefectDocs document, through Decode and through Build, and the
// per-link oracle's where it names the same defect.
func TestRefusalNamesEarliestDefect(t *testing.T) {
	for _, c := range twoDefectDocs {
		t.Run(c.name, func(t *testing.T) {
			g, err := Decode([]byte(c.doc))
			if g != nil || err == nil || err.Error() != c.want {
				t.Fatalf("Decode = %v, %v; want no graph and %q", g, err, c.want)
			}
			if refusalClass(err) != 3 {
				t.Fatalf("Decode refusal %v is not a graph sentinel", err)
			}
			var w wireGraph
			if err := json.Unmarshal([]byte(c.doc), &w); err != nil {
				t.Fatal(err)
			}
			tasks := make([]*Task, len(w.Tasks))
			for i, wt := range w.Tasks {
				if tasks[i], err = wt.task(); err != nil {
					break
				}
			}
			if err == nil {
				if _, err = Build(w.Name, tasks, w.Links); err == nil || err.Error() != c.want {
					t.Fatalf("Build = %v, want %q", err, c.want)
				}
			}
			if _, err := decodePerLink([]byte(c.doc)); !c.oracleDiffers && (err == nil || err.Error() != c.want) {
				t.Fatalf("per-link oracle = %v, want %q", err, c.want)
			}
			checkAgainstPerLink(t, []byte(c.doc))
		})
	}
}
