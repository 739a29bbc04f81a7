package site

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/afg"
	"repro/internal/scheduler"
	"repro/internal/wire"
)

// The wire layout of a SubmitReply, big-endian like a task value's. A list
// is a u32 count and its elements, a string a list of bytes, a name a u32
// index into the names, a flag a byte that is 0 or 1, and a map a flag, 0
// for nil, then (if 1) a list:
//
//	version      1 byte, submitReplyVersion
//	makespan     f64 bits
//	rescheduled  i64
//	names        list of strings: every site and host name, once
//	table        map of: id string; flag, 0 when the Task field is not the id,
//	             then that Task string; site and host names, a list of host
//	             names; predicted f64 bits
//	outputs      map of: id string, rendered value string
//
// Both maps go in task-id order, the graph's dense order, so equal replies
// encode to equal bytes. An empty host list reads back nil, as gob has it.
const submitReplyVersion = 1

// GobEncode writes the reply in the layout above. gob refuses a message over
// a GiB, so no length here outgrows its u32.
func (r SubmitReply) GobEncode() ([]byte, error) {
	var names []byte
	body := make([]byte, 0, 48*len(r.Table)+24*len(r.Outputs)+16)
	col := map[string]uint32{}
	name := func(s string) {
		k, ok := col[s]
		if !ok {
			k = uint32(len(col))
			col[s] = k
			names = wire.AppendString(names, s)
		}
		body = binary.BigEndian.AppendUint32(body, k)
	}
	body = appendMap(body, r.Table)
	for _, id := range sortedKeys(r.Table) {
		a := r.Table[id]
		if body = wire.AppendString(body, string(id)); a.Task == id {
			body = append(body, 1)
		} else {
			body = wire.AppendString(append(body, 0), string(a.Task))
		}
		name(a.Site)
		name(a.Host)
		body = binary.BigEndian.AppendUint32(body, uint32(len(a.Hosts)))
		for _, h := range a.Hosts {
			name(h)
		}
		body = binary.BigEndian.AppendUint64(body, math.Float64bits(a.Predicted))
	}
	body = appendMap(body, r.Outputs)
	for _, id := range sortedKeys(r.Outputs) {
		body = wire.AppendString(wire.AppendString(body, string(id)), r.Outputs[id])
	}
	b := binary.BigEndian.AppendUint64(append(make([]byte, 0, 21+len(names)+len(body)), submitReplyVersion), math.Float64bits(r.MakespanSec))
	b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(b, uint64(r.Rescheduled)), uint32(len(col)))
	return append(append(b, names...), body...), nil
}

// GobDecode reads the layout above. Bytes that do not fit it are refused
// with an error wrapping ErrMisshapenReply, and the reply is left as it was.
// Every string it reads back shares one copy of data.
func (r *SubmitReply) GobDecode(data []byte) error {
	d := wire.NewStringReader(data, "site: decode submit reply", ErrMisshapenReply)
	if v := d.U8(); v != submitReplyVersion {
		d.Fail("format version %d, want %d", v, submitReplyVersion)
	}
	out := SubmitReply{MakespanSec: math.Float64frombits(d.U64()), Rescheduled: int(int64(d.U64()))}
	names := make([]string, d.Count(4))
	for k := range names {
		names[k] = d.Str()
	}
	name := func() string {
		if k := d.U32(); k < len(names) {
			return names[k]
		}
		d.Fail("a name index past %d names", len(names))
		return ""
	}
	var prev afg.TaskID
	key := func(k int) afg.TaskID { // ids go strictly up, so none repeats
		id := afg.TaskID(d.Str())
		if k > 0 && id <= prev {
			d.Fail("task %q out of task-id order", id)
		}
		prev = id
		return id
	}
	if d.Flag() {
		n := d.Count(25) // a row takes 25 bytes or more
		out.Table = make(map[afg.TaskID]scheduler.Assignment, n)
		for k := 0; k < n && d.Err() == nil; k++ {
			id := key(k)
			a := scheduler.Assignment{Task: id}
			if !d.Flag() {
				a.Task = afg.TaskID(d.Str())
			}
			a.Site, a.Host = name(), name()
			if h := d.Count(4); h > 0 {
				a.Hosts = make([]string, h)
				for j := range a.Hosts {
					a.Hosts[j] = name()
				}
			}
			a.Predicted = math.Float64frombits(d.U64())
			out.Table[id] = a
		}
	}
	if d.Flag() {
		n := d.Count(8)
		out.Outputs = make(map[afg.TaskID]string, n)
		for k := 0; k < n && d.Err() == nil; k++ {
			id := key(k)
			out.Outputs[id] = d.Str()
		}
	}
	if err := d.End(); err != nil {
		return err
	}
	*r = out
	return nil
}

func sortedKeys[V any](m map[afg.TaskID]V) []afg.TaskID {
	ks := make([]afg.TaskID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func appendMap[V any](b []byte, m map[afg.TaskID]V) []byte {
	if m == nil {
		return append(b, 0)
	}
	return binary.BigEndian.AppendUint32(append(b, 1), uint32(len(m)))
}
