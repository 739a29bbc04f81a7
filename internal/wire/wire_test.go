package wire

import (
	"errors"
	"testing"
)

var errBad = errors.New("bad")

// TestReaderRoundTrip: what AppendString and the big-endian numbers write
// reads back in order, and a string reader's strings match a copying one's.
func TestReaderRoundTrip(t *testing.T) {
	b := AppendString([]byte{1, 0, 0, 0, 7}, "host")
	b = append(AppendString(b, ""), 0, 0, 0, 0, 0, 0, 0, 9)
	for _, r := range []Reader{NewReader(b, "p", errBad), NewStringReader(b, "p", errBad)} {
		if f, n, s, e, u := r.Flag(), r.U32(), r.Str(), r.Str(), r.U64(); !f || n != 7 || s != "host" || e != "" || u != 9 {
			t.Fatalf("read %v %d %q %q %d", f, n, s, e, u)
		}
		if err := r.End(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReaderFailureSticks: the first failure is the one reported, it wraps
// the reader's sentinel, and every later read is a zero.
func TestReaderFailureSticks(t *testing.T) {
	r := NewStringReader([]byte{2, 0, 0, 0, 9, 'x'}, "p", errBad)
	if r.Flag(); r.Err() == nil {
		t.Fatal("a flag byte of 2 was accepted")
	}
	first := r.Err()
	if r.Str() != "" || r.U64() != 0 || r.U8() != 0 || r.Count(1) != 0 || r.Rest() != nil {
		t.Fatal("a read after a failure returned data")
	}
	if err := r.End(); err != first || !errors.Is(err, errBad) {
		t.Fatalf("End = %v, want the first failure %v wrapping errBad", err, first)
	}
	for _, b := range [][]byte{{0, 0, 0, 2, 'x'}, {0, 0}} {
		r := NewReader(b, "p", errBad)
		if r.Str(); !errors.Is(r.End(), errBad) {
			t.Fatalf("% x: a count past the bytes left was accepted", b)
		}
	}
	if r := NewReader([]byte{0}, "p", errBad); !errors.Is(r.End(), errBad) {
		t.Fatal("a trailing byte was accepted")
	}
}
