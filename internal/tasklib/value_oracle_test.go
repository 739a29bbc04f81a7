package tasklib

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/matrix"
)

// gobRoundTrip is the oracle for the value codec: what encoding/gob, the
// codec's predecessor, hands back for v.
func gobRoundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var back Value
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return back
}

// sameValue is reflect.DeepEqual with NaN equal to NaN: the two values
// agree on every field, on which slices and matrix are nil, and on every
// float under ==.
func sameValue(a, b Value) bool {
	if a.Kind != b.Kind || a.Text != b.Text || !sameFloat(a.Scalar, b.Scalar) ||
		!sameFloats(a.Vector, b.Vector) || (a.Pivot == nil) != (b.Pivot == nil) || !slices.Equal(a.Pivot, b.Pivot) {
		return false
	}
	if a.Matrix == nil || b.Matrix == nil {
		return a.Matrix == nil && b.Matrix == nil
	}
	return a.Matrix.Rows == b.Matrix.Rows && a.Matrix.Cols == b.Matrix.Cols && sameFloats(a.Matrix.Data, b.Matrix.Data)
}

func sameFloat(x, y float64) bool { return x == y || (x != x && y != y) }

func sameFloats(a, b []float64) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, sameFloat)
}

// fuzzSource hands out fuzz bytes; once they run out it hands out zeros.
type fuzzSource []byte

func (s *fuzzSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

var fuzzFloats = [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -2.5, math.MaxFloat64, math.SmallestNonzeroFloat64}

func (s *fuzzSource) float() float64 {
	b := s.next()
	if int(b) < len(fuzzFloats) {
		return fuzzFloats[b]
	}
	return float64(int8(b)) / 3
}

// floats returns nil, an empty slice, or up to 15 floats.
func (s *fuzzSource) floats() []float64 {
	switch n := int(s.next() % 18); n {
	case 16:
		return nil
	case 17:
		return []float64{}
	default:
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = s.float()
		}
		return fs
	}
}

// fuzzValue builds a Value from fuzz bytes: one of the six kinds or an
// arbitrary one; a nil, empty or filled matrix (always well shaped), vector
// and pivot; NaN, ±0 and ±Inf among the floats.
func fuzzValue(data []byte) Value {
	s := fuzzSource(data)
	kinds := [...]Kind{KindNone, KindMatrix, KindVector, KindScalar, KindText, KindLU, "custom", "ü\x00"}
	v := Value{Kind: kinds[s.next()%byte(len(kinds))]}
	switch s.next() % 4 {
	case 1:
		v.Matrix = &matrix.Matrix{}
	case 2:
		v.Matrix = &matrix.Matrix{Rows: int(s.next() % 4), Cols: 0, Data: []float64{}}
	case 3:
		rows, cols := int(s.next()%4)+1, int(s.next()%4)+1
		v.Matrix = matrix.New(rows, cols)
		for i := range v.Matrix.Data {
			v.Matrix.Data[i] = s.float()
		}
	}
	v.Vector = s.floats()
	v.Scalar = s.float()
	n := int(s.next() % 8)
	n = min(n, len(s))
	v.Text, s = string(s[:n]), s[n:]
	switch n := int(s.next() % 6); n {
	case 4:
	case 5:
		v.Pivot = []int{}
	default:
		for range n {
			v.Pivot = append(v.Pivot, int(int8(s.next()))<<40)
		}
	}
	return v
}

// FuzzValueCodec holds the value codec to gob and to its own bytes:
//   - the bytes build a value, and DecodeValue(Encode(v)) must equal gob's
//     round trip of v;
//   - the bytes are decoded as they stand, which must not panic, and a value
//     they decode to must encode back to exactly those bytes.
func FuzzValueCodec(f *testing.F) {
	for _, v := range []Value{
		{},
		ScalarValue(math.Copysign(0, -1)),
		TextValue("hello"),
		VectorValue([]float64{1, math.NaN()}),
		{Kind: KindLU, Matrix: matrix.Identity(2), Pivot: []int{1, 0}},
	} {
		b, err := v.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("junk"))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := fuzzValue(data)
		wire, err := v.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeValue(wire)
		if err != nil {
			t.Fatalf("decode %+v: %v", v, err)
		}
		if want := gobRoundTrip(t, v); !sameValue(back, want) {
			t.Fatalf("round trip of %+v:\n got %+v\nwant %+v (gob)", v, back, want)
		}

		got, err := DecodeValue(data)
		if err != nil {
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("decode error %v does not wrap ErrBadInput", err)
			}
			return
		}
		again, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded %+v re-encodes to\n%x, not\n%x", got, again, data)
		}
	})
}

// TestDecodeValueRefusesMisshapenMatrix: a matrix whose shape does not match
// its data, or has a negative dimension, is refused with ErrBadInput rather
// than handed to a kernel that would index past its data.
func TestDecodeValueRefusesMisshapenMatrix(t *testing.T) {
	for _, m := range []*matrix.Matrix{
		{Rows: 4, Cols: 4, Data: []float64{1}},
		{Rows: -1, Cols: -1, Data: []float64{1}},
		{Rows: -2, Cols: 0},
		{Rows: 1 << 32, Cols: 1 << 32},
		{Rows: 1, Cols: 0, Data: []float64{1}},
	} {
		wire, err := MatrixValue(m).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeValue(wire); !errors.Is(err, ErrBadInput) {
			t.Errorf("%dx%d matrix of %d cells: err = %v, want ErrBadInput", m.Rows, m.Cols, len(m.Data), err)
		}
	}
}

// TestDecodeValueRefusesGob: bytes of the codec's gob predecessor are
// refused, not misread.
func TestDecodeValueRefusesGob(t *testing.T) {
	for _, v := range []Value{ScalarValue(1), MatrixValue(matrix.Identity(3)), {}} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeValue(buf.Bytes()); !errors.Is(err, ErrBadInput) {
			t.Errorf("gob bytes of %+v: err = %v, want ErrBadInput", v, err)
		}
	}
}

// TestValueEncodingIsBigEndian pins the layout of a scalar byte for byte.
func TestValueEncodingIsBigEndian(t *testing.T) {
	got, err := ScalarValue(1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		1,                                        // version
		0, 0, 0, 6, 's', 'c', 'a', 'l', 'a', 'r', // kind
		0,          // no matrix
		0, 0, 0, 0, // empty vector
		0x3f, 0xf0, 0, 0, 0, 0, 0, 0, // 1.0
		0, 0, 0, 0, // empty text
		0, 0, 0, 0, // no pivots
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scalar 1 encodes to %x, want %x", got, want)
	}
}

// BenchmarkValueCodec times one Encode and DecodeValue round trip.
func BenchmarkValueCodec(b *testing.B) {
	m := matrix.New(64, 64)
	for i := range m.Data {
		m.Data[i] = float64(i) / 7
	}
	for _, c := range []struct {
		name string
		v    Value
	}{
		{"scalar", ScalarValue(math.Pi)},
		{"matrix64", MatrixValue(m)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				wire, err := c.v.Encode()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := DecodeValue(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
