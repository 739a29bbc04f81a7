package afg_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
)

// submitDocument is the document a submit-local op carries: a 1,000-task
// dagen.Random graph, out-degree 4, as Encode writes it.
func submitDocument(t testing.TB) (*afg.Graph, []byte) {
	t.Helper()
	g, data, err := dagenDocument(1000)
	if err != nil {
		t.Fatal(err)
	}
	return g, data
}

// dagenDocument is an n-task graph of the submit document's shape and its
// Encode bytes.
func dagenDocument(n int) (*afg.Graph, []byte, error) {
	g := dagen.Random(dagen.Params{Tasks: n, CCR: 1, Alpha: 1, OutDegree: 4, Seed: 3})
	data, err := g.Encode()
	return g, data, err
}

// TestDecodeSubmitDocument pins Decode on the submit-local document: the
// graph it builds is the generated one — every task, every link in both
// directions, the topological order — and encodes to the same bytes.
func TestDecodeSubmitDocument(t *testing.T) {
	want, data := submitDocument(t)
	if !afg.TakesFastPath(data) {
		t.Fatal("the submit document misses the fast path")
	}
	g, err := afg.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != want.Name || !slices.Equal(g.TaskIDs(), want.TaskIDs()) || !slices.Equal(g.Links(), want.Links()) {
		t.Fatal("decoded graph differs from the generated one in its name, tasks or links")
	}
	for _, id := range want.TaskIDs() {
		if !reflect.DeepEqual(g.Task(id), want.Task(id)) {
			t.Fatalf("task %s: decoded %+v, generated %+v", id, g.Task(id), want.Task(id))
		}
		if !slices.Equal(g.Parents(id), want.Parents(id)) || !slices.Equal(g.Children(id), want.Children(id)) {
			t.Fatalf("task %s: links differ", id)
		}
	}
	gotOrder, _ := g.TopoOrder()
	wantOrder, _ := want.TopoOrder()
	if !slices.Equal(gotOrder, wantOrder) {
		t.Fatal("topological orders differ")
	}
	ix, _ := g.Index()
	wix, _ := want.Index()
	for i := range ix.Len() {
		if !slices.Equal(ix.Children(i), wix.Children(i)) || !slices.Equal(ix.Parents(i), wix.Parents(i)) {
			t.Fatalf("task %s: arcs differ", ix.ID(i))
		}
	}
	again, err := g.Encode()
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding the decoded graph drifted (%v)", err)
	}
}

// TestDecodeSubmitDocumentRefusals pins the exact refusal of the submit
// document with one defect written into it: task defects, link defects in
// each rule refusal names, and a cycle.
func TestDecodeSubmitDocumentRefusals(t *testing.T) {
	_, data := submitDocument(t)
	doc := string(data)
	end := strings.LastIndex(doc, "\n  ]\n}")
	for _, c := range []struct {
		name, old, new, want string
	}{
		{"duplicate task", `"id": "t00500"`, `"id": "t00499"`, `afg: duplicate task id: "t00499"`},
		{"empty task id", `"id": "t00500"`, `"id": ""`, `afg: empty task id`},
		{"unknown mode", `"mode": "sequential"`, `"mode": "quantum"`, `afg: task "t00000": unknown mode "quantum"`},
		{"unknown source", `"From": "t00010"`, `"From": "zz"`, `afg: unknown task id: "zz"`},
		{"unknown destination", `"To": "t00999"`, `"To": "zz"`, `afg: unknown task id: "zz"`},
		{"self link", `"To": "t00001"`, `"To": "t00000"`, `afg: link from a task to itself: "t00000"`},
		{"cycle", doc[end:], ",\n    {\"From\": \"t00999\", \"To\": \"t00000\", \"Bytes\": 0, \"Port\": 9}\n  ]\n}", `afg: graph contains a cycle`},
		{"duplicate link", doc[end:], ",\n    {\"From\": \"t00000\", \"To\": \"t00001\", \"Bytes\": 0, \"Port\": 9}\n  ]\n}",
			`afg: duplicate link: t00000 -> t00001`},
		{"port conflict", doc[end:], ",\n    {\"From\": \"t00999\", \"To\": \"t00001\", \"Bytes\": 0, \"Port\": 0}\n  ]\n}",
			`afg: input port already connected: port 0 on t00001 already connected (from t00000)`},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := strings.Replace(doc, c.old, c.new, 1)
			if bad == doc {
				t.Fatalf("%q is not in the document", c.old)
			}
			g, err := afg.Decode([]byte(bad))
			if g != nil || err == nil {
				t.Fatalf("Decode = %v, %v; want a refusal", g, err)
			}
			if err.Error() != c.want {
				t.Fatalf("Decode refused with %q, want %q", err, c.want)
			}
		})
	}
}

// TestDecodeAllocatesPerDocument holds Decode to a fixed number of
// allocations a document: the tasks go into one slab, their ids into one
// string, and the links into the Index's own storage, so a 4,000-task
// document of the submit document's shape allocates as often as a
// 1,000-task one, give or take the id map's tables (one per 1,024 slots)
// and the topological frontier's growth. Decoding each task into a Task of
// its own made 4,060 allocations at 1,000 tasks.
func TestDecodeAllocatesPerDocument(t *testing.T) {
	allocs := func(n int) float64 {
		_, data, err := dagenDocument(n)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := afg.Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	if small > 40 || large-small > 16 {
		t.Errorf("Decode allocs: %v at 1,000 tasks, %v at 4,000; want at most 40, and 16 more", small, large)
	}
}

var benchGraph *afg.Graph

// BenchmarkDecode reports ingest cost per task at three sizes of two
// shapes, so the slope — linear in the document, not quadratic in its
// links — is readable: layered documents, which list links by destination,
// and the submit document's dagen shape, which lists them by source as
// Encode does.
func BenchmarkDecode(b *testing.B) {
	for _, shape := range []struct {
		name string
		doc  func(n int) ([]byte, error)
	}{
		{"layered", afg.LayeredDocument},
		{"dagen", func(n int) ([]byte, error) { _, data, err := dagenDocument(n); return data, err }},
	} {
		for _, n := range []int{1000, 4000, 16000} {
			b.Run(fmt.Sprintf("%s/tasks=%d", shape.name, n), func(b *testing.B) {
				data, err := shape.doc(n)
				if err != nil {
					b.Fatal(err)
				}
				if !afg.TakesFastPath(data) {
					b.Fatal("the benchmark document misses the fast path: this would time json.Unmarshal")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if benchGraph, err = afg.Decode(data); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/task")
			})
		}
	}
}
