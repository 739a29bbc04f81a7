package afg

// The AFG document is the contract between the Application Editor, which
// serialises a graph for storage or submission (§2.1 "the user may store the
// application flow graph for future use"), and the Site Manager, which
// schedules it. This file is its one codec, written for this schema alone:
//
//   - Encode writes byte for byte what json.MarshalIndent(g, "", "  ") wrote
//     over wireGraph (field order, omitempty, sorted params, HTML-safe
//     escapes, ES6 float format); MarshalJSON is the compact json.Marshal.
//     A string that needs an escape is quoted by json.Marshal itself.
//     TestGeneratorsGolden pins the digests and FuzzEncode holds both faces
//     against encoding/json.
//   - Decode reads the shape the encoder writes on a fast path and hands
//     every other document to json.Unmarshal, so it accepts exactly what
//     json.Unmarshal accepts into wireGraph and builds the same graph from
//     it. The fast path takes one top-level object; member names that are
//     the schema's field names exactly, each at most once an object (params
//     keys are free, and a repeated one keeps its last value); strings with
//     no backslash, no control byte and valid UTF-8; numbers in JSON's
//     grammar that strconv parses in range; JSON white space, and nothing
//     after the document. Anything else goes to the fallback: null, true
//     and false, unknown members, and any nesting past graph → tasks/links
//     → task → params. On each of those json.Unmarshal has a rule of its
//     own (case-folded names, null, merged repeats, escapes and UTF-8
//     repair, type errors deferred behind syntax errors, a depth limit),
//     and the fallback applies it rather than a copy of it. Nothing chooses
//     the path but the document.
//     TestProducersTakeTheFastPath holds every producer to the fast path,
//     and FuzzDecode holds both paths against the encoding/json per-link
//     oracle, the fast path field by field.
//
// Refusals are typed: a malformed document wraps errSyntax, a value of the
// wrong type errWrongType (each wrapping encoding/json's own error), and a
// graph defect the sentinel Build names.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// wireGraph is the document's shape. The tags are the schema json.Unmarshal
// reads on the fallback path, and the test oracles read and write.
type wireGraph struct {
	Name  string     `json:"name"`
	Tasks []wireTask `json:"tasks"`
	Links []Link     `json:"links"`
}

type wireTask struct {
	ID          TaskID            `json:"id"`
	Function    string            `json:"function"`
	Mode        string            `json:"mode,omitempty"`
	Processors  int               `json:"processors,omitempty"`
	MachineType string            `json:"machineType,omitempty"`
	ComputeCost float64           `json:"computeCost,omitempty"`
	MemReq      int64             `json:"memReq,omitempty"`
	OutputBytes int64             `json:"outputBytes,omitempty"`
	Params      map[string]string `json:"params,omitempty"`
}

var (
	errSyntax    = errors.New("malformed JSON")
	errWrongType = errors.New("JSON value of the wrong type")
)

// MarshalJSON encodes the graph compactly and deterministically (tasks and
// links sorted).
func (g *Graph) MarshalJSON() ([]byte, error) { return g.appendJSON(false) }

// Encode renders the graph as indented JSON.
func (g *Graph) Encode() ([]byte, error) { return g.appendJSON(true) }

// task converts one wire task, refusing a mode the editor cannot have
// written.
func (wt wireTask) task() (*Task, error) {
	mode := Sequential
	switch wt.Mode {
	case "", "sequential":
	case "parallel":
		mode = Parallel
	default:
		return nil, fmt.Errorf("afg: task %q: %w %q", wt.ID, errUnknownMode, wt.Mode)
	}
	return &Task{
		ID:          wt.ID,
		Function:    wt.Function,
		Mode:        mode,
		Processors:  wt.Processors,
		MachineType: wt.MachineType,
		ComputeCost: wt.ComputeCost,
		MemReq:      wt.MemReq,
		OutputBytes: wt.OutputBytes,
		Params:      wt.Params,
	}, nil
}

// UnmarshalJSON decodes a graph and validates it: the whole document goes
// through Build, so a submission is refused for exactly what the editor
// would have refused link by link, with acyclicity decided once for the
// graph. When a document has more than one defect the error names one of
// them, not necessarily the first in wire order: every task is checked
// before any link, and a cycle is reported only for a document with no
// other defect. On error g is unchanged.
func (g *Graph) UnmarshalJSON(data []byte) error {
	w, err := decodeWire(data)
	if err != nil {
		return err
	}
	tasks := make([]*Task, len(w.Tasks))
	for i, wt := range w.Tasks {
		t, err := wt.task()
		if err != nil {
			return err
		}
		tasks[i] = t
	}
	fresh, err := Build(w.Name, tasks, w.Links)
	if err != nil {
		return err
	}
	if fresh.Len() == 0 {
		return ErrEmpty
	}
	// Move the decoded state field-by-field: copying the whole struct
	// would copy the dense-view mutex. The Index Build validated with comes
	// along, replacing any g had cached.
	g.mu.Lock()
	g.Name = fresh.Name
	g.tasks = fresh.tasks
	g.succ = fresh.succ
	g.pred = fresh.pred
	g.gen++
	g.idx, g.idxGen = fresh.idx, g.gen
	g.mu.Unlock()
	return nil
}

// Decode parses a JSON application flow graph.
func Decode(data []byte) (*Graph, error) {
	g := New("")
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return g, nil
}

// encoder writes the document, indented two spaces a level or compact.
type encoder struct {
	b      []byte
	indent bool
	depth  int
	first  bool     // the object or array just opened has no entry yet
	keys   []string // one task's params keys, reused across tasks
}

// appendJSON walks the sorted ids once: tasks in id order, then each task's
// links in insertion order, which is the order Links returns.
func (g *Graph) appendJSON(indent bool) ([]byte, error) {
	ids := g.TaskIDs()
	e := encoder{b: make([]byte, 0, 256+448*len(ids)), indent: indent}
	e.open('{')
	e.member("name")
	e.b = appendString(e.b, g.Name)
	e.member("tasks")
	if len(ids) == 0 {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for _, id := range ids {
			e.next()
			if err := e.task(g.tasks[id]); err != nil {
				return nil, err
			}
		}
		e.close(']')
	}
	e.member("links")
	n := 0
	for _, id := range ids {
		for _, l := range g.succ[id] {
			if n++; n == 1 {
				e.open('[')
			}
			e.next()
			e.link(l)
		}
	}
	if n == 0 {
		e.b = append(e.b, "null"...)
	} else {
		e.close(']')
	}
	e.close('}')
	return e.b, nil
}

// newlines is a line break and the indent of the deepest level the
// document has (graph, tasks, task, params).
const newlines = "\n        "

func (e *encoder) newline() {
	if e.indent {
		e.b = append(e.b, newlines[:1+2*e.depth]...)
	}
}

// open starts an object or array; every one the document has is non-empty.
func (e *encoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.newline()
	e.first = true
}

func (e *encoder) close(c byte) {
	e.depth--
	e.newline()
	e.b = append(e.b, c)
}

// next starts an entry: a comma unless it is the first.
func (e *encoder) next() {
	if !e.first {
		e.b = append(e.b, ',')
		e.newline()
	}
	e.first = false
}

// member starts an object member named by a wire field name, which needs
// no escaping.
func (e *encoder) member(name string) {
	e.next()
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"')
	e.colon()
}

func (e *encoder) colon() {
	e.b = append(e.b, ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

// task writes one task with wireTask's omitempty rules. Mode.String is
// never empty, so mode is always written.
func (e *encoder) task(t *Task) error {
	e.open('{')
	e.member("id")
	e.b = appendString(e.b, string(t.ID))
	e.member("function")
	e.b = appendString(e.b, t.Function)
	e.member("mode")
	e.b = appendString(e.b, t.Mode.String())
	if t.Processors != 0 {
		e.member("processors")
		e.b = strconv.AppendInt(e.b, int64(t.Processors), 10)
	}
	if t.MachineType != "" {
		e.member("machineType")
		e.b = appendString(e.b, t.MachineType)
	}
	if c := t.ComputeCost; math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("afg: encode: task %q: unsupported computeCost %v", t.ID, c)
	} else if c != 0 {
		e.member("computeCost")
		e.b = appendFloat(e.b, c)
	}
	if t.MemReq != 0 {
		e.member("memReq")
		e.b = strconv.AppendInt(e.b, t.MemReq, 10)
	}
	if t.OutputBytes != 0 {
		e.member("outputBytes")
		e.b = strconv.AppendInt(e.b, t.OutputBytes, 10)
	}
	if len(t.Params) > 0 {
		e.member("params")
		e.keys = e.keys[:0]
		for k := range t.Params {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		e.open('{')
		for _, k := range e.keys {
			e.next()
			e.b = appendString(e.b, k)
			e.colon()
			e.b = appendString(e.b, t.Params[k])
		}
		e.close('}')
	}
	e.close('}')
	return nil
}

func (e *encoder) link(l Link) {
	e.open('{')
	e.member("From")
	e.b = appendString(e.b, string(l.From))
	e.member("To")
	e.b = appendString(e.b, string(l.To))
	e.member("Bytes")
	e.b = strconv.AppendInt(e.b, l.Bytes, 10)
	e.member("Port")
	e.b = strconv.AppendInt(e.b, int64(l.Port), 10)
	e.close('}')
}

// appendFloat is encoding/json's float64 format, that of ES6: 'f' notation
// except below 1e-6 and from 1e21, with a two-digit negative exponent
// shortened (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString quotes s as encoding/json does with HTML escaping on. A
// string of printable ASCII with no '"', '\\', '<', '>' or '&' is written as
// it is; any other is left to json.Marshal, whose escapes are the format.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// decodeWire reads a document on the fast path if it can and through
// json.Unmarshal if not, wrapping encoding/json's refusals in the codec's
// sentinels.
func decodeWire(data []byte) (wireGraph, error) {
	if w, ok := fastWire(data); ok {
		return w, nil
	}
	var w wireGraph
	err := json.Unmarshal(data, &w)
	var wrong *json.UnmarshalTypeError
	switch {
	case err == nil:
		return w, nil
	case errors.As(err, &wrong):
		return w, fmt.Errorf("afg: decode: %w: %w", errWrongType, err)
	}
	// Into a wireGraph, json.Unmarshal's only other refusal is a
	// *json.SyntaxError.
	return w, fmt.Errorf("afg: decode: %w: %w", errSyntax, err)
}

// fastWire reads data on the fast path. ok is false for any document the
// path does not take, and w is then to be dropped.
func fastWire(data []byte) (w wireGraph, ok bool) {
	d := decoder{data: data}
	if !d.graph(&w) {
		return w, false
	}
	d.next()
	return w, d.off == len(data)
}

// decoder is the fast path: a reader for the shape Encode and MarshalJSON
// write, each method reporting false for anything else.
type decoder struct {
	data []byte
	off  int
}

// next skips white space and returns the byte at d.off, 0 at the end. The
// scan keeps the offset in a local: an indented document is a third white
// space.
func (d *decoder) next() byte {
	i := d.off
	for ; i < len(d.data); i++ {
		if c := d.data[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			d.off = i
			return c
		}
	}
	d.off = i
	return 0
}

// eat consumes c if it is the next byte past white space.
func (d *decoder) eat(c byte) bool {
	if d.next() == c {
		d.off++
		return true
	}
	return false
}

// list reads the entries of an object or array, from open to end, calling
// each to read every one.
func (d *decoder) list(open, end byte, each func() bool) bool {
	if !d.eat(open) {
		return false
	}
	if d.eat(end) {
		return true
	}
	for {
		if !each() {
			return false
		}
		if d.eat(end) {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// object reads an object, handing each member name to each, which reads
// the value.
func (d *decoder) object(each func(key []byte) bool) bool {
	return d.list('{', '}', func() bool {
		key, ok := d.quoted()
		return ok && d.eat(':') && each(key)
	})
}

// decodeSlice reads an array into *p, [] as an empty slice.
func decodeSlice[T any](d *decoder, p *[]T, elem func(*decoder, *T) bool) bool {
	s := []T{}
	ok := d.list('[', ']', func() bool {
		var zero T
		s = append(s, zero)
		return elem(d, &s[len(s)-1])
	})
	*p = s
	return ok
}

// once marks member bit as read and reports whether it was the first time:
// a repeated member leaves the fast path.
func once(seen *uint16, bit uint) bool {
	first := *seen&(1<<bit) == 0
	*seen |= 1 << bit
	return first
}

func (d *decoder) graph(w *wireGraph) bool {
	var seen uint16
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return once(&seen, 0) && d.str(&w.Name)
		case "tasks":
			return once(&seen, 1) && decodeSlice(d, &w.Tasks, (*decoder).task)
		case "links":
			return once(&seen, 2) && decodeSlice(d, &w.Links, (*decoder).link)
		}
		return false
	})
}

func (d *decoder) task(t *wireTask) bool {
	var seen uint16
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return once(&seen, 0) && d.str((*string)(&t.ID))
		case "function":
			return once(&seen, 1) && d.str(&t.Function)
		case "mode":
			return once(&seen, 2) && d.str(&t.Mode)
		case "processors":
			return once(&seen, 3) && d.int(&t.Processors)
		case "machineType":
			return once(&seen, 4) && d.str(&t.MachineType)
		case "computeCost":
			return once(&seen, 5) && d.float(&t.ComputeCost)
		case "memReq":
			return once(&seen, 6) && d.int64(&t.MemReq, 64)
		case "outputBytes":
			return once(&seen, 7) && d.int64(&t.OutputBytes, 64)
		case "params":
			return once(&seen, 8) && d.params(&t.Params)
		}
		return false
	})
}

func (d *decoder) link(l *Link) bool {
	var seen uint16
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "From":
			return once(&seen, 0) && d.str((*string)(&l.From))
		case "To":
			return once(&seen, 1) && d.str((*string)(&l.To))
		case "Bytes":
			return once(&seen, 2) && d.int64(&l.Bytes, 64)
		case "Port":
			return once(&seen, 3) && d.int(&l.Port)
		}
		return false
	})
}

// params reads a map of strings; a repeated key keeps its last value, as
// it does in json.Unmarshal.
func (d *decoder) params(p *map[string]string) bool {
	m := make(map[string]string)
	*p = m
	return d.object(func(key []byte) bool {
		v, ok := d.quoted()
		m[string(key)] = string(v)
		return ok
	})
}

func (d *decoder) str(p *string) bool {
	s, ok := d.quoted()
	*p = string(s)
	return ok
}

// quoted reads a string with no escape, no control byte and valid UTF-8,
// and returns a view of it in the input.
func (d *decoder) quoted() ([]byte, bool) {
	if d.next() != '"' {
		return nil, false
	}
	start, ascii := d.off+1, true
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			s := d.data[start:i]
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// number reads a number with JSON's grammar.
func (d *decoder) number() ([]byte, bool) {
	d.next()
	start := d.off
	if d.at('-') {
		d.off++
	}
	if d.at('0') {
		d.off++
	} else if !d.digits() {
		return nil, false
	}
	if d.at('.') {
		d.off++
		if !d.digits() {
			return nil, false
		}
	}
	if d.at('e') || d.at('E') {
		d.off++
		if d.at('+') || d.at('-') {
			d.off++
		}
		if !d.digits() {
			return nil, false
		}
	}
	return d.data[start:d.off], true
}

func (d *decoder) at(c byte) bool { return d.off < len(d.data) && d.data[d.off] == c }

// digits consumes a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// int64 reads an integer of the given size; a fraction, an exponent or an
// overflow leaves the fast path, as strconv.ParseInt decides.
func (d *decoder) int64(p *int64, bits int) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	*p = n
	return err == nil
}

func (d *decoder) int(p *int) bool {
	var n int64
	ok := d.int64(&n, strconv.IntSize)
	*p = int(n)
	return ok
}

// float reads a float64; a number out of its range leaves the fast path,
// as strconv.ParseFloat decides.
func (d *decoder) float(p *float64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*p = f
	return err == nil
}
