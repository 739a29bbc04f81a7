package afg

// The AFG document is the contract between the Application Editor, which
// serialises a graph for storage or submission (§2.1 "the user may store the
// application flow graph for future use"), and the Site Manager, which
// schedules it. This file is its one codec, written for this schema alone:
//
//   - Encode writes byte for byte what json.MarshalIndent(g, "", "  ") wrote
//     over wireGraph (field order, omitempty, sorted params, HTML-safe
//     escapes, ES6 float format). TestGeneratorsGolden pins its digests and
//     FuzzEncode holds it against encoding/json.
//   - Decode accepts exactly the documents json.Unmarshal accepted into
//     wireGraph and builds the same graph from each — key folding, null,
//     repeated keys, number ranges, nesting depth and string repair included.
//     FuzzDecode holds it against the encoding/json per-link oracle.
//
// Refusals are typed: a malformed document wraps errSyntax, a value of the
// wrong type errWrongType, and a graph defect the sentinel Build names.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// wireGraph is the document's shape. The tags are the schema encoding/json
// read and wrote; the test oracles still do.
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

const hexDigits = "0123456789abcdef"

// escapes holds the one-letter escape of each ASCII byte that has one.
var escapes = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// appendString quotes s as encoding/json does with HTML escaping on:
// control characters, '"', '\\', '<', '>' and '&' are escaped, as are
// U+2028 and U+2029, and each invalid UTF-8 byte is written as the six
// characters of the escaped U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if e := escapes[c]; e != 0 {
				b = append(b, '\\', e)
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// maxDepth is encoding/json's nesting limit, counted over every object and
// array whether it is decoded or skipped.
const maxDepth = 10000

// decoder reads one document into a wireGraph with json.Unmarshal's rules
// for these types: an exact member-name match first, then a case-folded
// one; unknown members skipped but syntax-checked; null leaving strings,
// numbers and structs as they are and making slices and maps nil; a
// repeated array decoding over the elements already there; a repeated
// object merging into the map already there. A value of the wrong type is
// recorded and skipped, and reported only if the document has no syntax
// error, because encoding/json checks syntax before it decodes anything.
type decoder struct {
	data    []byte
	off     int
	depth   int
	typeErr error  // first value of the wrong type
	buf     []byte // unquoted string; valid until the next string is read
}

func decodeWire(data []byte) (wireGraph, error) {
	d := decoder{data: data}
	var w wireGraph
	err := d.graph(&w)
	if err != nil {
		return w, err
	}
	if d.next(); d.off < len(d.data) {
		return w, d.syntax("data after the document")
	}
	return w, d.typeErr
}

func (d *decoder) syntax(what string) error {
	if d.off >= len(d.data) {
		what = "unexpected end of input"
	}
	return fmt.Errorf("afg: decode: %w at offset %d: %s", errSyntax, d.off, what)
}

// mistyped records a value of the wrong type that started at start.
func (d *decoder) mistyped(start int, want string) {
	if d.typeErr == nil {
		d.typeErr = fmt.Errorf("afg: decode: %w at offset %d: want %s", errWrongType, start, want)
	}
}

// wrongType skips a value that cannot go where it was found.
func (d *decoder) wrongType(want string) error {
	start := d.off
	if err := d.skip(); err != nil {
		return err
	}
	d.mistyped(start, want)
	return nil
}

// next skips white space and returns the byte at d.off, 0 at the end. The
// scans here keep the offset in a local: an indented document is a third
// white space.
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

// open consumes the '{' or '[' at d.off.
func (d *decoder) open() error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeded max nesting depth")
	}
	return nil
}

// more reports whether the object or array being read has another entry,
// consuming the ',' before it or the closing end.
func (d *decoder) more(end byte, first bool) (bool, error) {
	switch c := d.next(); {
	case c == end:
		d.off++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.off++
		return true, nil
	}
	return false, d.syntax("want ',' or '" + string(end) + "'")
}

// members reads the members of the object just opened, handing each name
// to each, which reads the value.
func (d *decoder) members(each func(key []byte) error) error {
	for first := true; ; first = false {
		ok, err := d.more('}', first)
		if !ok || err != nil {
			return err
		}
		if d.next() != '"' {
			return d.syntax("want a member name")
		}
		key, err := d.quoted()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.syntax("want ':'")
		}
		d.off++
		if err := each(key); err != nil {
			return err
		}
	}
}

// elements reads the elements of the array just opened, calling each to
// read every one.
func (d *decoder) elements(each func() error) error {
	for first := true; ; first = false {
		ok, err := d.more(']', first)
		if !ok || err != nil {
			return err
		}
		if err := each(); err != nil {
			return err
		}
	}
}

// object reads an object where a struct is expected, handing each member
// to set with the index of its field in names, or -1. null leaves the
// struct as it is.
func (d *decoder) object(names *fieldNames, set func(field int) error) error {
	switch d.next() {
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		return d.members(func(key []byte) error { return set(names.index(key)) })
	case 'n':
		return d.literal("null")
	}
	return d.wrongType("an object")
}

// fieldNames are a struct's member names and their case folds.
type fieldNames struct{ exact, folded []string }

func fieldsOf(names ...string) fieldNames {
	f := fieldNames{exact: names}
	for _, n := range names {
		f.folded = append(f.folded, string(foldName(nil, []byte(n))))
	}
	return f
}

var (
	graphFields = fieldsOf("name", "tasks", "links")
	taskFields  = fieldsOf("id", "function", "mode", "processors", "machineType", "computeCost", "memReq", "outputBytes", "params")
	linkFields  = fieldsOf("From", "To", "Bytes", "Port")
)

// index returns the field key names, or -1.
func (f *fieldNames) index(key []byte) int {
	for i, n := range f.exact {
		if string(key) == n {
			return i
		}
	}
	var buf [32]byte
	folded := foldName(buf[:0], key)
	for i, n := range f.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// foldName is encoding/json's: ASCII upper case, and every other rune the
// smallest of its simple fold orbit, so "ſ" (long s) folds to "S".
func foldName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			f := unicode.SimpleFold(r)
			if f <= r {
				r = f
				break
			}
			r = f
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

func (d *decoder) graph(w *wireGraph) error {
	return d.object(&graphFields, func(field int) error {
		switch field {
		case 0:
			return d.str(&w.Name)
		case 1:
			return decodeSlice(d, &w.Tasks, (*decoder).task)
		case 2:
			return decodeSlice(d, &w.Links, (*decoder).link)
		}
		return d.skip()
	})
}

func (d *decoder) task(t *wireTask) error {
	return d.object(&taskFields, func(field int) error {
		switch field {
		case 0:
			return d.str((*string)(&t.ID))
		case 1:
			return d.str(&t.Function)
		case 2:
			return d.str(&t.Mode)
		case 3:
			return d.int(&t.Processors)
		case 4:
			return d.str(&t.MachineType)
		case 5:
			return d.float(&t.ComputeCost)
		case 6:
			return d.int64(&t.MemReq, 64)
		case 7:
			return d.int64(&t.OutputBytes, 64)
		case 8:
			return d.params(&t.Params)
		}
		return d.skip()
	})
}

func (d *decoder) link(l *Link) error {
	return d.object(&linkFields, func(field int) error {
		switch field {
		case 0:
			return d.str((*string)(&l.From))
		case 1:
			return d.str((*string)(&l.To))
		case 2:
			return d.int64(&l.Bytes, 64)
		case 3:
			return d.int(&l.Port)
		}
		return d.skip()
	})
}

// decodeSlice reads an array into *p as encoding/json does: element i
// decodes over whatever the slice already holds at i (its length, or its
// capacity, grown as append grows it), the slice ends at the array's
// length, [] is an empty slice and null is nil.
func decodeSlice[T any](d *decoder, p *[]T, elem func(*decoder, *T) error) error {
	switch d.next() {
	case '[':
	case 'n':
		*p = nil
		return d.literal("null")
	default:
		return d.wrongType("an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	s, i := *p, 0
	err := d.elements(func() error {
		if i == len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		i++
		return elem(d, &s[i-1])
	})
	if err != nil {
		return err
	}
	if i == 0 {
		s = []T{}
	}
	*p = s[:i]
	return nil
}

// params reads a map: null makes it nil, an object adds its members to the
// map already there, and a null member value is stored as "".
func (d *decoder) params(p *map[string]string) error {
	switch d.next() {
	case '{':
	case 'n':
		*p = nil
		return d.literal("null")
	default:
		return d.wrongType("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	if *p == nil {
		*p = make(map[string]string)
	}
	return d.members(func(key []byte) error {
		k, v := string(key), ""
		err := d.str(&v)
		(*p)[k] = v
		return err
	})
}

func (d *decoder) str(p *string) error {
	switch d.next() {
	case '"':
		s, err := d.quoted()
		if err == nil {
			*p = string(s)
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.wrongType("a string")
}

// numeral reads a number where one is expected. lit is nil when the value
// was null or of another type.
func (d *decoder) numeral(want string) (lit []byte, err error) {
	switch c := d.next(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return nil, d.wrongType(want)
}

// number reads a number with JSON's grammar.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.at('-') {
		d.off++
	}
	if d.at('0') {
		d.off++
	} else if !d.digits() {
		return nil, d.syntax("want a value")
	}
	if d.at('.') {
		d.off++
		if !d.digits() {
			return nil, d.syntax("invalid number")
		}
	}
	if d.at('e') || d.at('E') {
		d.off++
		if d.at('+') || d.at('-') {
			d.off++
		}
		if !d.digits() {
			return nil, d.syntax("invalid number")
		}
	}
	return d.data[start:d.off], nil
}

func (d *decoder) at(c byte) bool { return d.off < len(d.data) && d.data[d.off] == c }

// digits consumes a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	i := d.off
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		i++
	}
	start := d.off
	d.off = i
	return i > start
}

// int64 stores an integer of the given size: a fraction, an exponent or an
// overflow is a value of the wrong type, as strconv.ParseInt decides.
func (d *decoder) int64(p *int64, bits int) error {
	start := d.off
	lit, err := d.numeral("an integer")
	if lit != nil {
		if n, perr := strconv.ParseInt(string(lit), 10, bits); perr == nil {
			*p = n
		} else {
			d.mistyped(start, "an integer")
		}
	}
	return err
}

func (d *decoder) int(p *int) error {
	n := int64(*p)
	err := d.int64(&n, strconv.IntSize)
	*p = int(n)
	return err
}

// float stores a float64; a number out of its range is a value of the wrong
// type, as strconv.ParseFloat decides.
func (d *decoder) float(p *float64) error {
	start := d.off
	lit, err := d.numeral("a float64")
	if lit != nil {
		if f, perr := strconv.ParseFloat(string(lit), 64); perr == nil {
			*p = f
		} else {
			d.mistyped(start, "a float64")
		}
	}
	return err
}

// literal consumes true, false or null.
func (d *decoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.syntax("invalid literal")
	}
	d.off += len(lit)
	return nil
}

// skip reads one value of any type without storing it: how an unknown
// member, or a value of the wrong type, is still checked for syntax.
func (d *decoder) skip() error {
	switch c := d.next(); c {
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		return d.members(func([]byte) error { return d.skip() })
	case '[':
		if err := d.open(); err != nil {
			return err
		}
		return d.elements(d.skip)
	case '"':
		_, err := d.quoted()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, err := d.number()
	return err
}

// quoted reads the string at d.off and returns it unquoted: a view of the
// input when nothing needs rewriting, else d.buf.
func (d *decoder) quoted() ([]byte, error) {
	start := d.off + 1
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c == '\\':
			d.off = i
			return d.unquote(start)
		case c < ' ':
			d.off = i
			return nil, d.syntax("control character in string")
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && n == 1 {
				d.off = i
				return d.unquote(start)
			}
			i += n
		}
	}
	d.off = len(d.data)
	return nil, d.syntax("")
}

// unquote finishes a string that needs rewriting, as encoding/json does:
// escapes resolved, a surrogate pair joined, a lone surrogate and each
// invalid UTF-8 byte replaced by U+FFFD.
func (d *decoder) unquote(start int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:d.off]...)
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			d.buf = b
			return b, nil
		case c == '\\':
			if d.off+1 >= len(d.data) {
				return nil, d.syntax("")
			}
			e := d.data[d.off+1]
			d.off += 2
			switch {
			case unescape[e] != 0:
				b = append(b, unescape[e])
			case e == 'u':
				r := hex4(d.data[d.off:])
				if r < 0 {
					return nil, d.syntax(`invalid \u escape`)
				}
				d.off += 4
				if utf16.IsSurrogate(r) {
					low := rune(-1)
					if d.at('\\') && d.off+1 < len(d.data) && d.data[d.off+1] == 'u' {
						low = hex4(d.data[d.off+2:])
					}
					if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
						d.off += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.syntax("invalid escape")
			}
		case c < ' ':
			return nil, d.syntax("control character in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			r, n := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r)
			d.off += n
		}
	}
	return nil, d.syntax("")
}

// unescape maps the byte after a backslash to the byte it stands for, 0 for
// no one-byte escape.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 parses the four hex digits s starts with, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	n, err := strconv.ParseUint(string(s[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}
