package wire

import (
	"encoding/binary"
	"fmt"
)

// Reader decodes the fields of one frame, log record or command. It never
// panics on hostile input: every length is compared in uint64 against
// the bytes left before anything is sliced or sized by it. The first
// failure sticks — later reads return zero values — and Err reports it.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader reads data from its first byte.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err reports the first failure.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's failure unless one is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done reports that every byte was read without failure.
func (r *Reader) Done() bool { return r.err == nil && r.pos == len(r.data) }

// Peek returns the bytes left without consuming them.
func (r *Reader) Peek() []byte { return r.data[r.pos:] }

// Uvarint reads a uvarint in its one minimal encoding: a value padded
// with zero groups is refused, so that what decodes re-encodes to the
// same bytes.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || n > 1 && r.data[r.pos+n-1] == 0 {
		r.err = fmt.Errorf("wire: truncated or padded varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// ReadUvarintBounded reads a value of at most limit. With minItem > 0 the
// value counts the items that follow, each at least minItem bytes, and a
// count the bytes left cannot hold is refused too — before the caller
// sizes an allocation by it.
func (r *Reader) ReadUvarintBounded(minItem, limit int) int {
	at := r.pos
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if limit < 0 || n > uint64(limit) {
		r.err = fmt.Errorf("wire: value %d at offset %d exceeds the limit %d", n, at, limit)
		return 0
	}
	if left := len(r.data) - r.pos; minItem > 0 && n > uint64(left/minItem) {
		r.err = fmt.Errorf("wire: count %d at offset %d exceeds what the %d bytes left can hold", n, at, left)
		return 0
	}
	return int(n)
}

// Take consumes the next n bytes and returns them, aliasing the input.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.err = fmt.Errorf("wire: field of %d bytes at offset %d is cut short", n, r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bytes reads a uvarint-length field, aliasing the input.
func (r *Reader) Bytes() []byte {
	l := r.Uvarint()
	if r.err == nil && l > uint64(len(r.data)-r.pos) {
		r.err = fmt.Errorf("wire: field of %d bytes at offset %d is cut short", l, r.pos)
	}
	return r.Take(int(l))
}

// String reads a uvarint-length field as a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Rest consumes and returns every byte left.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.data[r.pos:]
	r.pos = len(r.data)
	return b
}
