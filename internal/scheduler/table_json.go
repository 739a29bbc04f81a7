package scheduler

import (
	"encoding/json"

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
	return json.Marshal(tableJSON{App: t.App, Entries: t.Entries(), Order: t.Order()})
}

// UnmarshalJSON implements json.Unmarshaler. The order list is sanitised —
// unknown and duplicate ids are dropped — and entries a legacy payload
// omitted from the order are appended in sorted-id order, so Order() always
// covers exactly the table's entries. Each entry is kept under its key.
func (t *AllocationTable) UnmarshalJSON(data []byte) error {
	var raw tableJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*t = *NewAllocationTableSized(raw.App, len(raw.Entries))
	for _, id := range append(raw.Order, sortedIDs(raw.Entries)...) { // an id's first put places it
		if a, ok := raw.Entries[id]; ok && t.pos(id) < 0 {
			t.put(id, a)
		}
	}
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
