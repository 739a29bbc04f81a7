package scheduler

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/afg"
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
	if back.App != "app" || len(back.Entries) != 3 {
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
