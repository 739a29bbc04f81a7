package site

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/afg"
	"repro/internal/scheduler"
)

// plainSubmitReply is SubmitReply without its methods, so gob sends it by
// reflection: the oracle the binary layout must read back like.
type plainSubmitReply struct {
	Table       map[afg.TaskID]scheduler.Assignment
	MakespanSec float64
	Rescheduled int
	Outputs     map[afg.TaskID]string
}

// submitReplies are replies of every shape the layout carries: parallel
// host sets, a host set given as an empty slice, a Task field other than
// its key, names shared between rows, empty and missing outputs.
func submitReplies() []SubmitReply {
	return []SubmitReply{
		{},
		{Table: map[afg.TaskID]scheduler.Assignment{}, Outputs: map[afg.TaskID]string{}},
		{
			Table: map[afg.TaskID]scheduler.Assignment{
				"lu":    {Task: "lu", Site: "rome", Host: "rome-node01", Hosts: []string{"rome-node01", "rome-node02"}, Predicted: 0.25},
				"genA":  {Task: "genA", Site: "syracuse", Host: "syracuse-node00", Predicted: 1e-9},
				"genB":  {Task: "genB", Site: "syracuse", Host: "rome-node02", Hosts: []string{}, Predicted: math.Inf(1)},
				"solve": {Task: "other", Site: "", Host: "", Predicted: -2},
				"":      {Site: "rome", Host: "rome-node01"},
			},
			MakespanSec: 0.125,
			Rescheduled: -3,
			Outputs:     map[afg.TaskID]string{"solve": "scalar 1e-15", "lu": "", "": "x"},
		},
		{Table: map[afg.TaskID]scheduler.Assignment{"t": {Task: "t", Site: "s", Host: "h"}}, MakespanSec: math.MaxFloat64, Rescheduled: math.MaxInt64},
	}
}

// TestSubmitReplyMatchesReflectedGob: a reply sent through its binary layout
// reads back as the same reply sent field by field through gob, and equal
// replies encode to equal bytes.
func TestSubmitReplyMatchesReflectedGob(t *testing.T) {
	for i, r := range submitReplies() {
		var got SubmitReply
		var wire bytes.Buffer
		if err := gob.NewEncoder(&wire).Encode(r); err != nil {
			t.Fatalf("reply %d: encode: %v", i, err)
		}
		if err := gob.NewDecoder(&wire).Decode(&got); err != nil {
			t.Fatalf("reply %d: decode: %v", i, err)
		}
		var want plainSubmitReply
		if err := gob.NewEncoder(&wire).Encode(plainSubmitReply(r)); err != nil {
			t.Fatalf("reply %d: reflected encode: %v", i, err)
		}
		if err := gob.NewDecoder(&wire).Decode(&want); err != nil {
			t.Fatalf("reply %d: reflected decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, SubmitReply(want)) {
			t.Errorf("reply %d: read back\n %+v\nwant\n %+v", i, got, want)
		}
		a, _ := r.GobEncode()
		b, _ := got.GobEncode()
		if !bytes.Equal(a, b) {
			t.Errorf("reply %d: the reply read back encodes to other bytes", i)
		}
	}
}

// TestSubmitReplyRefusesMisshapenBytes: every cut of a good reply, a stray
// byte after it, and rows out of order are refused with ErrMisshapenReply,
// leaving the reply untouched.
func TestSubmitReplyRefusesMisshapenBytes(t *testing.T) {
	data, _ := submitReplies()[2].GobEncode()
	bad := [][]byte{append(append([]byte{}, data...), 0)}
	for n := range data {
		bad = append(bad, data[:n])
	}
	swapped := SubmitReply{Table: map[afg.TaskID]scheduler.Assignment{"a": {Task: "a"}, "b": {Task: "b"}}}
	rows, _ := swapped.GobEncode()
	rows = bytes.Replace(rows, []byte("a"), []byte("c"), 1) // rows c, b
	bad = append(bad, rows, bytes.Replace(rows, []byte("c"), []byte("b"), 1))
	for _, raw := range bad {
		r := SubmitReply{Rescheduled: 7}
		if err := r.GobDecode(raw); !errors.Is(err, ErrMisshapenReply) || r.Rescheduled != 7 {
			t.Errorf("% x: err = %v, reply %+v; want ErrMisshapenReply and the reply untouched", raw, err, r)
		}
	}
}

// FuzzSubmitReply: raw bytes decode to a reply whose encoding reads back to
// itself, or are refused with ErrMisshapenReply; nothing panics.
func FuzzSubmitReply(f *testing.F) {
	for _, r := range submitReplies() {
		data, err := r.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{submitReplyVersion, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r SubmitReply
		if err := r.GobDecode(data); err != nil {
			if !errors.Is(err, ErrMisshapenReply) {
				t.Fatalf("refused with %v, want ErrMisshapenReply", err)
			}
			return
		}
		enc, err := r.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var again SubmitReply
		if err := again.GobDecode(enc); err != nil {
			t.Fatalf("the encoding of an accepted reply is refused: %v", err)
		}
		if re, _ := again.GobEncode(); !bytes.Equal(re, enc) {
			t.Fatal("an accepted reply does not read back to itself")
		}
	})
}
