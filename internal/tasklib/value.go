package tasklib

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/matrix"
	"repro/internal/wire"
)

// Kind discriminates the payload carried by a Value.
type Kind string

// Value kinds.
const (
	KindNone   Kind = ""
	KindMatrix Kind = "matrix"
	KindVector Kind = "vector"
	KindScalar Kind = "scalar"
	KindText   Kind = "text"
	KindLU     Kind = "lu" // packed LU factor + pivot vector
)

// Value is the single data type that flows over AFG links. It is a tagged
// union of the payloads the built-in libraries exchange. Encode writes it in
// a fixed binary layout that the Site Manager's RunTask RPC and the Data
// Manager's sockets carry between machines (the paper's "socket-based,
// message-passing mechanism", §2.3.2).
type Value struct {
	Kind   Kind
	Matrix *matrix.Matrix
	Vector []float64
	Scalar float64
	Text   string
	Pivot  []int // used by KindLU
}

// MatrixValue wraps a matrix payload.
func MatrixValue(m *matrix.Matrix) Value { return Value{Kind: KindMatrix, Matrix: m} }

// VectorValue wraps a vector payload.
func VectorValue(v []float64) Value { return Value{Kind: KindVector, Vector: v} }

// ScalarValue wraps a scalar payload.
func ScalarValue(s float64) Value { return Value{Kind: KindScalar, Scalar: s} }

// TextValue wraps a text payload.
func TextValue(t string) Value { return Value{Kind: KindText, Text: t} }

// AsMatrix extracts a matrix payload or fails with ErrBadInput.
func (v Value) AsMatrix() (*matrix.Matrix, error) {
	if v.Kind != KindMatrix && v.Kind != KindLU {
		return nil, fmt.Errorf("%w: want matrix, got %q", ErrBadInput, v.Kind)
	}
	if v.Matrix == nil {
		return nil, fmt.Errorf("%w: nil matrix payload", ErrBadInput)
	}
	if v.Matrix.Rows <= 0 || v.Matrix.Cols <= 0 {
		// A value off the wire may carry an empty matrix; no kernel takes one.
		return nil, fmt.Errorf("%w: empty %dx%d matrix", ErrBadInput, v.Matrix.Rows, v.Matrix.Cols)
	}
	return v.Matrix, nil
}

// AsVector extracts a vector payload.
func (v Value) AsVector() ([]float64, error) {
	if v.Kind != KindVector {
		return nil, fmt.Errorf("%w: want vector, got %q", ErrBadInput, v.Kind)
	}
	return v.Vector, nil
}

// SizeBytes estimates the wire size of the payload; the Data Manager uses
// it for transfer accounting and the netsim delay injection.
func (v Value) SizeBytes() int64 {
	var n int64 = 16 // tag + framing overhead estimate
	if v.Matrix != nil {
		n += int64(len(v.Matrix.Data))*8 + 16
	}
	n += int64(len(v.Vector)) * 8
	n += int64(len(v.Text))
	n += int64(len(v.Pivot)) * 8
	return n
}

// The wire layout of a Value. Every number is big-endian, the byte order of
// the Data Manager's frame header, so a value reads the same on any machine
// (the "data conversion" of §2.3.2):
//
//	version  1 byte, valueVersion
//	kind     u32 length, then its bytes
//	matrix   1 byte: 0 absent, 1 present; if present, rows i64, cols i64,
//	         then the data as u32 count and count IEEE-754 f64 bits
//	vector   u32 count, then count f64 bits
//	scalar   f64 bits
//	text     u32 length, then its bytes
//	pivot    u32 count, then count i64
//
// Decoding checks every count against the bytes that remain before it
// allocates, refuses trailing bytes, and reads an empty slice back as nil, so
// a decoded value re-encodes to exactly the bytes it came from.
const valueVersion = 1

// Encode serialises the value in the layout above. Equal values encode to
// equal bytes.
func (v Value) Encode() ([]byte, error) {
	m := v.Matrix
	n := 1 + 4 + len(v.Kind) + 1 + 4 + 8*len(v.Vector) + 8 + 4 + len(v.Text) + 4 + 8*len(v.Pivot)
	var data []float64
	if m != nil {
		data = m.Data
		n += 8 + 8 + 4 + 8*len(data)
	}
	for _, c := range [...]int{len(v.Kind), len(data), len(v.Vector), len(v.Text), len(v.Pivot)} {
		if uint64(c) > math.MaxUint32 {
			return nil, fmt.Errorf("tasklib: encode value: a field of %d elements exceeds the wire limit", c)
		}
	}
	b := make([]byte, 0, n)
	b = append(b, valueVersion)
	b = wire.AppendString(b, string(v.Kind))
	if m == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Rows))
		b = binary.BigEndian.AppendUint64(b, uint64(m.Cols))
		b = appendFloats(b, data)
	}
	b = appendFloats(b, v.Vector)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Scalar))
	b = wire.AppendString(b, v.Text)
	b = binary.BigEndian.AppendUint32(b, uint32(len(v.Pivot)))
	for _, p := range v.Pivot {
		b = binary.BigEndian.AppendUint64(b, uint64(p))
	}
	return b, nil
}

func appendFloats(b []byte, fs []float64) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(fs)))
	for _, f := range fs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// DecodeValue deserialises a value produced by Encode. Malformed bytes, and a
// matrix whose shape does not match its data, are refused with an error
// wrapping ErrBadInput.
func DecodeValue(data []byte) (Value, error) {
	r := wire.NewReader(data, "tasklib: decode value", ErrBadInput)
	if ver := r.U8(); ver != valueVersion {
		r.Fail("format version %d, want %d", ver, valueVersion)
	}
	v := Value{Kind: kindOf(r.Bytes())}
	if r.Flag() {
		rows, cols := int(int64(r.U64())), int(int64(r.U64()))
		v.Matrix = &matrix.Matrix{Rows: rows, Cols: cols, Data: floats(&r)}
		if hi, lo := bits.Mul64(uint64(rows), uint64(cols)); rows < 0 || cols < 0 || hi != 0 || lo != uint64(len(v.Matrix.Data)) {
			r.Fail("%dx%d matrix carries %d cells", rows, cols, len(v.Matrix.Data))
		}
	}
	v.Vector = floats(&r)
	v.Scalar = math.Float64frombits(r.U64())
	v.Text = r.Str()
	if n := r.Count(8); n > 0 {
		v.Pivot = make([]int, n)
		for i := range v.Pivot {
			v.Pivot[i] = int(int64(r.U64()))
		}
	}
	if err := r.End(); err != nil {
		return Value{}, err
	}
	return v, nil
}

// kindOf returns the Kind a wire kind names without allocating for the
// built-in kinds.
func kindOf(b []byte) Kind {
	for _, k := range [...]Kind{KindNone, KindMatrix, KindVector, KindScalar, KindText, KindLU} {
		if string(b) == string(k) {
			return k
		}
	}
	return Kind(b)
}

// floats reads a counted run of f64 bits; an empty run reads as nil.
func floats(r *wire.Reader) []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	p := r.Take(8 * n)
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
	}
	return fs
}
