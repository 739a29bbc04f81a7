package afg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// typedRefusal reports whether err is one of the refusals ingest may give:
// one of the package's sentinel errors, or encoding/json's own typed error
// for bytes that are not a wire document at all.
func typedRefusal(err error) bool {
	for _, want := range []error{
		ErrDuplicateTask, ErrUnknownTask, ErrSelfLink, ErrDuplicateLink,
		ErrCycle, ErrEmpty, ErrPortConflict, errEmptyID, errUnknownMode,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	var syntax *json.SyntaxError
	var mistyped *json.UnmarshalTypeError
	return errors.As(err, &syntax) || errors.As(err, &mistyped)
}

// FuzzDecode feeds arbitrary bytes to Decode and to the per-link path it
// replaced (decodePerLink, kept as the oracle). The two must agree on which
// documents are graphs; an accepted document must encode to the same bytes
// from both and survive a further round trip unchanged; a refused one must
// be refused with a typed error by both (which defect of several is named
// may differ); nothing may panic. Run the smoke in CI with:
//
//	go test -run=NONE -fuzz=FuzzDecode -fuzztime=10s ./internal/afg
func FuzzDecode(f *testing.F) {
	for _, c := range refusalDocs {
		f.Add([]byte(c.doc))
	}
	f.Add([]byte(`{"name":"ok","tasks":[{"id":"a","function":"f","mode":"parallel","processors":3,"params":{"n":"4"}},
		{"id":"b","function":"f","computeCost":1.5},{"id":"c","function":"f"}],
		"links":[{"From":"b","To":"c","Bytes":7,"Port":1},{"From":"a","To":"c","Port":0},{"From":"a","To":"b","Port":-2}]}`))
	f.Add([]byte(`{"tasks":[{"id":"a"},{"id":"b"}],"links":[{"From":"a","To":"b"},{"From":"b","To":"a"},{"From":"a","To":"zz"}]}`))
	f.Add([]byte(`{"tasks":[{"id":7}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		oracle, oerr := decodePerLink(data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("Decode err = %v, per-link err = %v", err, oerr)
		}
		if err != nil {
			if g != nil {
				t.Fatalf("Decode returned a graph with %v", err)
			}
			if !typedRefusal(err) || !typedRefusal(oerr) {
				t.Fatalf("untyped refusal: Decode %v, per-link %v", err, oerr)
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
	})
}
