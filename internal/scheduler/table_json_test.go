package scheduler

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
)

func orderedTestTable() *AllocationTable {
	table := NewAllocationTable("app")
	// Deliberately non-alphabetical assignment order: a sorted fallback
	// would be caught by the round-trip checks below.
	for _, id := range []afg.TaskID{"c", "a", "b"} {
		table.Set(Assignment{Task: id, Site: "syr", Host: "h-" + string(id), Predicted: 1})
	}
	return table
}

// The assignment order must survive a JSON round-trip — it used to live in
// an unexported field only, so RPC clients always saw an empty Order().
func TestAllocationTableJSONRoundTripKeepsOrder(t *testing.T) {
	table := orderedTestTable()
	data, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var back AllocationTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.App != "app" || back.Len() != 3 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	want := []afg.TaskID{"c", "a", "b"}
	got := back.Order()
	if len(got) != len(want) {
		t.Fatalf("Order() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Order() = %v, want %v", got, want)
		}
	}
	// Encode/DecodeTable is the same contract as a convenience pair.
	raw, err := table.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeTable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if o := decoded.Order(); len(o) != 3 || o[0] != "c" {
		t.Fatalf("DecodeTable order = %v", o)
	}
	// PerSite depends on the order — it must work on the decoded side.
	if per := decoded.PerSite("syr"); len(per) != 3 || per[0].Task != "c" {
		t.Fatalf("PerSite after decode = %+v", per)
	}
}

// Legacy payloads (no order field) still decode, with a deterministic
// sorted-id order synthesised for the entries.
func TestAllocationTableJSONLegacyPayload(t *testing.T) {
	raw := []byte(`{"app":"old","entries":{"b":{"task":"b","site":"s","host":"h","predicted":1},` +
		`"a":{"task":"a","site":"s","host":"h","predicted":1}}}`)
	var table AllocationTable
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatal(err)
	}
	o := table.Order()
	if len(o) != 2 || o[0] != "a" || o[1] != "b" {
		t.Fatalf("legacy order = %v, want [a b]", o)
	}
	// A stale order mentioning unknown ids, with entries it misses, still
	// yields a complete, deduplicated order.
	data, err := json.Marshal(orderedTestTable())
	if err != nil {
		t.Fatal(err)
	}
	data = []byte(strings.Replace(string(data), `"order":["c","a","b"]`, `"order":["b","ghost","b"]`, 1))
	var partial AllocationTable
	if err := json.Unmarshal(data, &partial); err != nil {
		t.Fatal(err)
	}
	if o := partial.Order(); len(o) != 3 || o[0] != "b" || o[1] != "a" || o[2] != "c" {
		t.Fatalf("sanitised order = %v, from %s", o, data)
	}
}

var tableSeed = flag.Int64("table-seed", 0, "seed of TestAllocationTableByIndexMatchesByName (0: from the clock)")

// A table built for a graph (positions from its afg.Index) and one built by
// name, put through the same random sequence of Sets — first settings,
// overwrites, parallel host sets, ids the graph does not name (which move
// the first onto its own positions) — must read the same through every
// reader: Get of every id, Order, Len, Sites, PerSite, the JSON bytes, and
// what Simulate and ValidateSchedule make of them. Complete tables replay;
// partial ones and ghost ids are refused, with the same error.
func TestAllocationTableByIndexMatchesByName(t *testing.T) {
	seed := *tableSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	sites := []string{"east", "west", "north"}
	net := netsim.StarTopology(sites, 5*time.Millisecond, 1e7, 1)
	model := func(task *afg.Task, host string) float64 { return task.ComputeCost * float64(1+len(host)%3) }
	for round := 0; round < 60; round++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (replay: -table-seed %d), round %d: %s", seed, seed, round, fmt.Sprintf(format, args...))
		}
		g := dagen.Random(dagen.Params{Tasks: 2 + rng.Intn(30), CCR: 1, Alpha: 1, OutDegree: 3, Beta: 1, Seed: rng.Int63()})
		ix, err := g.Index()
		if err != nil {
			t.Fatal(err)
		}
		ids := append(ix.IDs()[:ix.Len():ix.Len()], "ghost-a", "ghost-b")
		byIndex, byName := tableFor(g.Name, ix), NewAllocationTable(g.Name)
		set := func(id afg.TaskID) {
			site := sites[rng.Intn(len(sites))]
			a := Assignment{Task: id, Site: site, Host: fmt.Sprintf("%s-%d", site, rng.Intn(3)), Predicted: rng.Float64()}
			if rng.Intn(4) == 0 {
				a.Hosts = []string{a.Host, site + "-9"}
			}
			byIndex.Set(a)
			byName.Set(a)
		}
		if rng.Intn(2) == 0 { // complete, in a random order
			for _, k := range rng.Perm(ix.Len()) {
				set(ix.ID(k))
			}
		}
		for steps := rng.Intn(2 * ix.Len()); steps > 0; steps-- {
			if rng.Intn(40) == 0 {
				set(ids[ix.Len()+rng.Intn(2)])
			} else {
				set(ix.ID(rng.Intn(ix.Len())))
			}
		}

		for _, id := range ids {
			a, ok := byIndex.Get(id)
			b, okb := byName.Get(id)
			if ok != okb || !reflect.DeepEqual(a, b) {
				fail("Get(%s) = (%+v, %v) by index, (%+v, %v) by name", id, a, ok, b, okb)
			}
		}
		if a, b := byIndex.Order(), byName.Order(); !reflect.DeepEqual(a, b) || byIndex.Len() != byName.Len() {
			fail("Order %v (Len %d) by index, %v (Len %d) by name", a, byIndex.Len(), b, byName.Len())
		}
		if a, b := byIndex.Sites(), byName.Sites(); !reflect.DeepEqual(a, b) {
			fail("Sites %v by index, %v by name", a, b)
		}
		for _, site := range sites {
			if a, b := byIndex.PerSite(site), byName.PerSite(site); !reflect.DeepEqual(a, b) {
				fail("PerSite(%s) %v by index, %v by name", site, a, b)
			}
		}
		ja, erra := json.Marshal(byIndex)
		jb, errb := json.Marshal(byName)
		if erra != nil || errb != nil || string(ja) != string(jb) {
			fail("JSON by index:\n%s (%v)\nby name:\n%s (%v)", ja, erra, jb, errb)
		}
		mka, erra := Simulate(g, byIndex, model, net)
		mkb, errb := Simulate(g, byName, model, net)
		if math.Float64bits(mka) != math.Float64bits(mkb) || fmt.Sprint(erra) != fmt.Sprint(errb) {
			fail("Simulate (%v, %v) by index, (%v, %v) by name", mka, erra, mkb, errb)
		}
		aa, erra := ValidateSchedule(g, byIndex, model, net)
		ab, errb := ValidateSchedule(g, byName, model, net)
		if !reflect.DeepEqual(aa, ab) || fmt.Sprint(erra) != fmt.Sprint(errb) {
			fail("ValidateSchedule (%v, %v) by index, (%v, %v) by name", aa, erra, ab, errb)
		}
	}
}
