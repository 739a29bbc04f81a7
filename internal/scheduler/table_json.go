package scheduler

import (
	"encoding/json"
	"sort"

	"repro/internal/afg"
)

// AllocationTable serialisation. The assignment order is scheduling state —
// PerSite slices, experiment merges, and batch clients all replay it — but
// the field is unexported, so a naive struct marshal dropped it and Order()
// came back empty on the receiving side of every RPC round-trip. The
// marshalers below carry it explicitly.

// tableJSON is the wire form of an AllocationTable.
type tableJSON struct {
	App     string                    `json:"app"`
	Entries map[afg.TaskID]Assignment `json:"entries"`
	Order   []afg.TaskID              `json:"order,omitempty"`
}

// MarshalJSON implements json.Marshaler, including the assignment order.
func (t *AllocationTable) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{App: t.App, Entries: t.Entries, Order: t.order})
}

// UnmarshalJSON implements json.Unmarshaler. The order list is sanitised —
// unknown and duplicate ids are dropped — and entries a legacy payload
// omitted from the order are appended in sorted-id order, so Order() always
// covers exactly the table's entries.
func (t *AllocationTable) UnmarshalJSON(data []byte) error {
	var raw tableJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	t.App = raw.App
	t.Entries = raw.Entries
	if t.Entries == nil {
		t.Entries = make(map[afg.TaskID]Assignment)
	}
	t.order = orderedIDs(t.Entries, raw.Order)
	return nil
}

// Encode serialises the table to JSON.
func (t *AllocationTable) Encode() ([]byte, error) { return json.Marshal(t) }

// DecodeTable parses a JSON-encoded allocation table.
func DecodeTable(data []byte) (*AllocationTable, error) {
	var t AllocationTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// orderedIDs returns order filtered to ids present in entries (first
// occurrence wins), with any entries missing from order appended in sorted
// id order.
func orderedIDs(entries map[afg.TaskID]Assignment, order []afg.TaskID) []afg.TaskID {
	out := make([]afg.TaskID, 0, len(entries))
	seen := make(map[afg.TaskID]bool, len(entries))
	for _, id := range order {
		if _, ok := entries[id]; ok && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	if len(out) < len(entries) {
		var rest []afg.TaskID
		for id := range entries {
			if !seen[id] {
				rest = append(rest, id)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		out = append(out, rest...)
	}
	return out
}
