package afg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzGraphIndex drives a Graph through an arbitrary AddTask/AddLink
// sequence decoded from the fuzz input — with Index() snapshots taken
// mid-stream, so generation invalidation is exercised too — and then checks
// that the dense view agrees with the map-keyed graph on every axis:
// id assignment, CSR adjacency (including the resolved transfer bytes),
// topological validity, and level values. Run the smoke in CI with:
//
//	go test -run=NONE -fuzz=FuzzGraphIndex -fuzztime=10s ./internal/afg
func FuzzGraphIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 2})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 2, 3, 2, 3, 2, 1, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := New("fuzz")
		id := func(b byte) TaskID { return TaskID(fmt.Sprintf("t%02d", b%24)) }
		for i := 0; i+1 < len(ops); i += 2 {
			switch ops[i] % 4 {
			case 0: // add a task; duplicates are rejected and ignored
				b := ops[i+1]
				_ = g.AddTask(&Task{
					ID:          id(b),
					Function:    "f",
					ComputeCost: float64(b%7) + 0.5,
					OutputBytes: int64(b % 5 * 100),
				})
			case 1, 2: // add a link; errors (cycle, dup, unknown) are ignored
				if i+2 >= len(ops) {
					break
				}
				l := Link{From: id(ops[i+1]), To: id(ops[i+2]), Bytes: int64(ops[i+1]%3) * 50}
				_ = g.AddLink(l)
				i++
			case 3: // snapshot the index mid-stream: later mutations must invalidate it
				if g.Len() > 0 {
					if _, err := g.Index(); err != nil {
						t.Fatalf("mid-stream Index: %v", err)
					}
				}
			}
		}
		if g.Len() == 0 {
			return
		}
		ix, err := g.Index()
		if err != nil {
			t.Fatalf("Index: %v", err)
		}

		// Identity: dense ids are exactly the sorted TaskIDs, and Of inverts.
		ids := g.TaskIDs()
		if ix.Len() != len(ids) {
			t.Fatalf("Len %d != %d tasks", ix.Len(), len(ids))
		}
		for i, want := range ids {
			if got := ix.ID(i); got != want {
				t.Fatalf("ID(%d) = %q, want %q", i, got, want)
			}
			if ix.Of(want) != i {
				t.Fatalf("Of(%q) = %d, want %d", want, ix.Of(want), i)
			}
			if ix.Task(i) != g.Task(want) {
				t.Fatalf("Task(%d) is not the graph's task %q", i, want)
			}
		}
		if ix.Of("nope") != -1 {
			t.Fatal("Of(unknown) != -1")
		}

		// Adjacency: CSR arcs mirror the map-keyed links, with the transfer
		// volume resolved by the link-bytes-else-parent-OutputBytes rule.
		resolve := func(l Link) int64 {
			if l.Bytes > 0 {
				return l.Bytes
			}
			return g.Task(l.From).OutputBytes
		}
		for i, tid := range ids {
			children := g.Children(tid)
			arcs := ix.Children(i)
			if len(arcs) != len(children) {
				t.Fatalf("task %q: %d dense children, %d map children", tid, len(arcs), len(children))
			}
			for k, l := range children {
				if ix.ID(int(arcs[k].Peer)) != l.To || arcs[k].Bytes != resolve(l) {
					t.Fatalf("task %q child %d: arc %+v vs link %+v", tid, k, arcs[k], l)
				}
			}
			parents := g.Parents(tid)
			arcs = ix.Parents(i)
			if len(arcs) != len(parents) || ix.NumParents(i) != len(parents) {
				t.Fatalf("task %q: %d dense parents, %d map parents", tid, len(arcs), len(parents))
			}
			for k, l := range parents {
				if ix.ID(int(arcs[k].Peer)) != l.From || arcs[k].Bytes != resolve(l) {
					t.Fatalf("task %q parent %d: arc %+v vs link %+v", tid, k, arcs[k], l)
				}
			}
		}

		// Topological validity: a permutation with every parent first.
		topo := ix.Topo()
		if len(topo) != ix.Len() {
			t.Fatalf("topo covers %d of %d", len(topo), ix.Len())
		}
		pos := make([]int, ix.Len())
		seen := make([]bool, ix.Len())
		for k, i := range topo {
			if seen[i] {
				t.Fatalf("topo repeats %d", i)
			}
			seen[i] = true
			pos[i] = k
		}
		for i := range ids {
			for _, a := range ix.Parents(i) {
				if pos[a.Peer] >= pos[i] {
					t.Fatalf("topo places parent %d after child %d", a.Peer, i)
				}
			}
		}

		// Levels: recompute independently from the map view.
		want := make(map[TaskID]float64, len(ids))
		var level func(TaskID) float64
		level = func(tid TaskID) float64 {
			if v, ok := want[tid]; ok {
				return v
			}
			var best float64
			for _, l := range g.Children(tid) {
				if v := level(l.To); v > best {
					best = v
				}
			}
			v := best + g.Task(tid).ComputeCost
			want[tid] = v
			return v
		}
		dense := ix.Levels()
		for i, tid := range ids {
			if dense[i] != level(tid) { //vdce:ignore floateq dense-vs-recomputed equivalence: bit identity is the property under fuzz
				t.Fatalf("level(%q) = %v dense, %v recomputed", tid, dense[i], level(tid))
			}
		}
	})
}

// refusalClass sorts an ingest refusal the way both decoders must agree on
// it: 1 for bytes that are not JSON, 2 for JSON with a value of the wrong
// type, 3 for a wire document that is not a graph (which defect of several
// is named may differ), 0 for anything else — an untyped refusal.
func refusalClass(err error) int {
	var syntax *json.SyntaxError
	var mistyped *json.UnmarshalTypeError
	switch {
	case errors.Is(err, errSyntax) || errors.As(err, &syntax):
		return 1
	case errors.Is(err, errWrongType) || errors.As(err, &mistyped):
		return 2
	}
	for _, want := range []error{
		ErrDuplicateTask, ErrUnknownTask, ErrSelfLink, ErrDuplicateLink,
		ErrCycle, ErrEmpty, ErrPortConflict, errEmptyID, errUnknownMode,
	} {
		if errors.Is(err, want) {
			return 3
		}
	}
	return 0
}

// checkAgainstPerLink holds Decode against the per-link path it replaced
// (decodePerLink, kept as the oracle, which reads through encoding/json).
// The two must agree on which documents are graphs; an accepted document
// must encode to the same bytes from both and survive a further round trip
// unchanged; a refused one must be refused by both with a typed error of
// the same class; nothing may panic.
func checkAgainstPerLink(t *testing.T, data []byte) {
	t.Helper()
	checkFastPath(t, data)
	g, err := Decode(data)
	oracle, oerr := decodePerLink(data)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("Decode err = %v, per-link err = %v", err, oerr)
	}
	if err != nil {
		if g != nil {
			t.Fatalf("Decode returned a graph with %v", err)
		}
		if c := refusalClass(err); c == 0 || c != refusalClass(oerr) {
			t.Fatalf("refusals differ in kind: Decode %v, per-link %v", err, oerr)
		}
		return
	}
	enc, err := g.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if want, err := oracle.Encode(); err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("bulk and per-link ingest disagree (%v):\n%s\nvs\n%s", err, enc, want)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if again, err := back.Encode(); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("round trip drifted (%v):\n%s\nvs\n%s", err, again, enc)
	}
	if _, err := g.Index(); err != nil {
		t.Fatalf("Index of an accepted graph: %v", err)
	}
}

// checkFastPath holds Decode's fast path to json.Unmarshal field by field:
// a document the path takes must be one json.Unmarshal takes, into a
// wireGraph reflect.DeepEqual to the path's, nil against empty slices and
// maps included.
func checkFastPath(t *testing.T, data []byte) {
	t.Helper()
	fast, ok := fastWire(data)
	if !ok {
		return
	}
	var want wireGraph
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("fast path took a document json.Unmarshal refuses: %v", err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("fast path and json.Unmarshal disagree:\n%#v\nvs\n%#v", fast, want)
	}
}

// fastPathSeeds are documents on the fast path and just off it: on are
// small Encode and MarshalJSON output and a copy with a non-ASCII string;
// off are copies with a repeated member, an escaped key and 1.0 for an int.
func fastPathSeeds() (on, off []string) {
	g := New("seed")
	for _, t := range []*Task{
		{ID: "a", Function: "f", Mode: Parallel, Processors: 3, MachineType: "m", ComputeCost: 1.5,
			MemReq: 7, OutputBytes: 9, Params: map[string]string{"n": "4", "k": ""}},
		{ID: "b", Function: "g", ComputeCost: 2e-7},
		{ID: "c"},
	} {
		if err := g.AddTask(t); err != nil {
			panic(err)
		}
	}
	for _, l := range []Link{{From: "a", To: "c", Bytes: 5, Port: 0}, {From: "b", To: "c", Bytes: 6, Port: 1}} {
		if err := g.AddLinkExact(l); err != nil {
			panic(err)
		}
	}
	indented, err := g.Encode()
	if err != nil {
		panic(err)
	}
	compact, err := g.MarshalJSON()
	if err != nil {
		panic(err)
	}
	doc := string(compact)
	on = []string{string(indented), doc, strings.Replace(doc, `"function":"g"`, `"function":"gé"`, 1)}
	off = []string{
		strings.Replace(doc, `"function":"g"`, `"function":"g","function":"h"`, 1),
		strings.Replace(doc, `"machineType"`, `"machine\u0054ype"`, 1),
		strings.Replace(doc, `"processors":3`, `"processors":1.0`, 1),
	}
	return on, off
}

// TestFastPathSeeds pins which of fastPathSeeds the fast path takes.
func TestFastPathSeeds(t *testing.T) {
	on, off := fastPathSeeds()
	for _, c := range []struct {
		docs []string
		want bool
	}{{on, true}, {off, false}} {
		for _, doc := range c.docs {
			if _, ok := fastWire([]byte(doc)); ok != c.want {
				t.Errorf("fast path took it = %v, want %v:\n%s", ok, c.want, doc)
			}
			checkAgainstPerLink(t, []byte(doc))
		}
	}
}

// FuzzDecode feeds arbitrary bytes to Decode and to the per-link oracle
// (see checkAgainstPerLink). Run the smoke in CI with:
//
//	go test -run=NONE -fuzz=FuzzDecode -fuzztime=10s ./internal/afg
func FuzzDecode(f *testing.F) {
	for _, c := range refusalDocs {
		f.Add([]byte(c.doc))
	}
	for _, c := range quirkDocs {
		if len(c.doc) < 1000 { // not the 20 kB depth documents
			f.Add([]byte(c.doc))
		}
	}
	f.Add([]byte(`{"name":"ok","tasks":[{"id":"a","function":"f","mode":"parallel","processors":3,"params":{"n":"4"}},
		{"id":"b","function":"f","computeCost":1.5},{"id":"c","function":"f"}],
		"links":[{"From":"b","To":"c","Bytes":7,"Port":1},{"From":"a","To":"c","Port":0},{"From":"a","To":"b","Port":-2}]}`))
	f.Add([]byte(`{"tasks":[{"id":"a"},{"id":"b"}],"links":[{"From":"a","To":"b"},{"From":"b","To":"a"},{"From":"a","To":"zz"}]}`))
	on, off := fastPathSeeds()
	for _, doc := range append(on, off...) {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`{"tasks":[{"id":7}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})
	f.Fuzz(checkAgainstPerLink)
}

// wireOf is the wireGraph the encoder before this codec built from g.
func wireOf(g *Graph) wireGraph {
	w := wireGraph{Name: g.Name, Links: g.Links()}
	for _, id := range g.TaskIDs() {
		t := g.Task(id)
		w.Tasks = append(w.Tasks, wireTask{
			ID:          t.ID,
			Function:    t.Function,
			Mode:        t.Mode.String(),
			Processors:  t.Processors,
			MachineType: t.MachineType,
			ComputeCost: t.ComputeCost,
			MemReq:      t.MemReq,
			OutputBytes: t.OutputBytes,
			Params:      t.Params,
		})
	}
	return w
}

// oracleEncode is the Encode this codec replaced, json.MarshalIndent(g)
// through the old MarshalJSON: json.MarshalIndent over wireOf(g). It stays
// as the test-only oracle Encode is held against.
func oracleEncode(g *Graph) ([]byte, error) {
	return json.MarshalIndent(wireOf(g), "", "  ")
}

// checkAgainstEncodingJSON holds both faces of the encoder against
// encoding/json over the same wireGraph: Encode against MarshalIndent and
// MarshalJSON against Marshal, bytes equal, and a value encoding/json
// refuses (a NaN or infinite cost) refused by both.
func checkAgainstEncodingJSON(t *testing.T, g *Graph) {
	t.Helper()
	for _, face := range []struct {
		name      string
		got, want func() ([]byte, error)
	}{
		{"Encode", g.Encode, func() ([]byte, error) { return oracleEncode(g) }},
		{"MarshalJSON", g.MarshalJSON, func() ([]byte, error) { return json.Marshal(wireOf(g)) }},
	} {
		got, err := face.got()
		want, oerr := face.want()
		if (err == nil) != (oerr == nil) {
			t.Fatalf("%s err = %v, encoding/json err = %v", face.name, err, oerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s drifted from encoding/json:\n%q\nvs\n%q", face.name, got, want)
		}
	}
}

// FuzzEncode builds a two-task graph from arbitrary field values — strings
// with control bytes, invalid UTF-8, U+2028/U+2029 and HTML characters,
// every float class, any Processors (set after AddTask's floor, so 0 and
// negatives reach the encoder), params — and holds Encode and MarshalJSON
// to encoding/json's bytes (checkAgainstEncodingJSON). The encoded
// document then goes through checkAgainstPerLink, so the decoder sees
// every string the encoder can write. Run the smoke in CI with:
//
//	go test -run=NONE -fuzz=FuzzEncode -fuzztime=10s ./internal/afg
func FuzzEncode(f *testing.F) {
	type fields struct {
		name, id, function, machine string
		mode                        uint8
		procs                       int
		cost                        float64
		mem, out                    int64
		key, val, child             string
		volume                      int64
		port                        int
	}
	for _, c := range []fields{
		{"g", "a", "f", "", 0, 2, 1.5, 0, 64, "n", "4", "b", 7, 1},
		{"<&>", "a\x00\x1f\x7f\"\\", "\xff\xfe", "x\xe2\x80\xa8y\xe2\x80\xa9", 1, 0, math.Copysign(0, -1), -1, 1 << 62, "<k>", "\b\f\n\r\t", "\xc5\xbf", -3, -2},
		{"", "t", "", "", 2, -4, 1e-7, 0, 0, "", "", "t", 0, 0},
		{"e", "a", "f", "", 0, 1, 1e21, 0, 0, "a", "", "b", 0, 0},
		{"e", "a", "f", "", 0, 1, 123456789e-20, 0, 0, "", "", "", 0, 0},
		{"nan", "a", "f", "", 0, 1, math.NaN(), 0, 0, "", "", "b", 0, 0},
		{"inf", "a", "f", "", 0, 1, math.Inf(1), 0, 0, "", "", "b", 0, 0},
		{"-inf", "a", "f", "", 0, 1, math.Inf(-1), 0, 0, "", "", "b", 0, 0},
		{"empty id", "", "f", "", 0, 1, 1, 0, 0, "", "", "", 0, 0},
		{"<", ">", "&", "\u2028", 0, 1, 1, 0, 0, "", "", "", 0, 0},
	} {
		f.Add(c.name, c.id, c.function, c.machine, c.mode, c.procs, c.cost, c.mem, c.out, c.key, c.val, c.child, c.volume, c.port)
	}
	f.Fuzz(func(t *testing.T, name, id, function, machine string, mode uint8, procs int, cost float64,
		mem, out int64, key, val, child string, volume int64, port int) {
		g := New(name)
		task := &Task{ID: TaskID(id), Function: function, Mode: Mode(mode % 3), MachineType: machine,
			ComputeCost: cost, MemReq: mem, OutputBytes: out}
		if key != "" || val != "" {
			task.Params = map[string]string{key: val, val + "/" + key: key}
		}
		if g.AddTask(task) == nil {
			task.Processors = procs
			if g.AddTask(&Task{ID: TaskID(child), Function: val, ComputeCost: -cost}) == nil {
				_ = g.AddLinkExact(Link{From: TaskID(id), To: TaskID(child), Bytes: volume, Port: port})
			}
		}
		checkAgainstEncodingJSON(t, g)
		if data, err := g.Encode(); err == nil {
			checkAgainstPerLink(t, data)
		}
	})
}
