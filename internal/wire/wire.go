// Package wire holds what the big-endian binary layouts of a task value
// (tasklib), a Data Manager frame (datamgr) and a submit reply (site)
// share: a string written as a u32 length and its bytes, and a Reader that
// checks every count against the bytes left before its caller allocates.
package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendString appends s as a u32 length and its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// Reader consumes a layout front to back. Its first failure sticks: it
// drops the bytes left, so later reads return zeros, and later failures
// leave the error as it is.
type Reader struct {
	b      []byte
	s      string // the same bytes as b, for Str; empty unless NewStringReader
	err    error
	prefix string
	bad    error
}

// NewReader reads b. Every failure is reported after prefix and wraps bad.
func NewReader(b []byte, prefix string, bad error) Reader {
	return Reader{b: b, prefix: prefix, bad: bad}
}

// NewStringReader is NewReader that makes one string copy of b, so that
// each Str is a slice of it and allocates nothing.
func NewStringReader(b []byte, prefix string, bad error) Reader {
	return Reader{b: b, s: string(b), prefix: prefix, bad: bad}
}

// Fail records a failure unless one is recorded already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w: "+format, append([]any{r.prefix, r.bad}, args...)...)
	}
	r.b, r.s = nil, ""
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// End refuses any bytes left and returns the first failure.
func (r *Reader) End() error {
	if len(r.b) != 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Take reads n bytes, or fails and returns nil if fewer are left.
func (r *Reader) Take(n int) []byte {
	if n > len(r.b) {
		r.Fail("truncated: %d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	if r.s != "" {
		r.s = r.s[n:]
	}
	return p
}

// Rest reads every byte left.
func (r *Reader) Rest() []byte { return r.Take(len(r.b)) }

var zeros [8]byte

func (r *Reader) fixed(n int) []byte {
	if p := r.Take(n); p != nil {
		return p
	}
	return zeros[:n]
}

// U8, U32 and U64 read a byte and big-endian numbers; Bytes reads a counted
// run of bytes.
func (r *Reader) U8() byte      { return r.fixed(1)[0] }
func (r *Reader) U32() int      { return int(binary.BigEndian.Uint32(r.fixed(4))) }
func (r *Reader) U64() uint64   { return binary.BigEndian.Uint64(r.fixed(8)) }
func (r *Reader) Bytes() []byte { return r.Take(r.Count(1)) }

// Flag reads a byte that must be 0 or 1.
func (r *Reader) Flag() bool {
	f := r.U8()
	if f > 1 {
		r.Fail("a flag byte of %d", f)
	}
	return f == 1
}

// Count reads a u32 element count and checks that count elements of size
// bytes each fit in what is left.
func (r *Reader) Count(size int) int {
	n := r.U32()
	if n > len(r.b)/size {
		r.Fail("truncated: %d elements of %d bytes, %d bytes left", n, size, len(r.b))
		return 0
	}
	return n
}

// Str reads a counted string: a slice of the one copy a NewStringReader
// made, a new string otherwise.
func (r *Reader) Str() string {
	n := r.Count(1)
	if r.s == "" {
		return string(r.Take(n))
	}
	s := r.s[:n]
	r.Take(n)
	return s
}
