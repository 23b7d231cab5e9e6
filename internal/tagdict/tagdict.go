// Package tagdict implements the tag dictionary the paper uses to
// compress the structure of XML documents before encryption.
//
// "For ensuring compactness, we compress the document structure using a
// dictionary of tags [XGRIND] and encode the set of tags thanks to a bit
// array referring to the tag dictionary." (Section 2.3.)
//
// Every distinct element or attribute name of a document gets a small
// integer Code; the encrypted document stream and the skip index are
// expressed entirely in code space. At session start the SOE translates
// the node tests of the user's access rules into code space and can then
// evaluate rules without ever materializing tag strings, which matters on
// a device with ~1 KB of working memory.
package tagdict

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Code identifies a tag in a dictionary. Codes are dense: 0..Len()-1.
type Code uint16

// NoCode is returned for names absent from the dictionary. A rule node
// test that maps to NoCode can never match anything in the document (the
// automaton compiler exploits this to prune the rule).
const NoCode Code = 0xFFFF

// MaxTags is the maximum number of distinct tags per document. The bound
// keeps bit arrays and the code space small, as the paper's compactness
// argument requires; real document schemas are far below it.
const MaxTags = 4096

// Dict maps tag names to codes and back. Codes are assigned in the order
// names are added; builders add names by decreasing frequency so frequent
// tags get small codes (shorter varints in the encoded stream).
type Dict struct {
	names []string
	codes map[string]Code
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{codes: make(map[string]Code)}
}

// FromTags builds a dictionary from a name list (order = code order).
func FromTags(tags []string) (*Dict, error) {
	d := New()
	for _, t := range tags {
		if _, err := d.Add(t); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// FromCounts builds a dictionary from tag frequencies, assigning small
// codes to frequent tags (ties broken alphabetically for determinism).
func FromCounts(counts map[string]int) (*Dict, error) {
	tags := make([]string, 0, len(counts))
	for t := range counts {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool {
		if counts[tags[i]] != counts[tags[j]] {
			return counts[tags[i]] > counts[tags[j]]
		}
		return tags[i] < tags[j]
	})
	return FromTags(tags)
}

// Add inserts a name and returns its code. Adding an existing name
// returns the existing code.
func (d *Dict) Add(name string) (Code, error) {
	if name == "" {
		return NoCode, fmt.Errorf("tagdict: empty tag name")
	}
	if c, ok := d.codes[name]; ok {
		return c, nil
	}
	if len(d.names) >= MaxTags {
		return NoCode, fmt.Errorf("tagdict: more than %d distinct tags", MaxTags)
	}
	c := Code(len(d.names))
	d.names = append(d.names, name)
	d.codes[name] = c
	return c, nil
}

// Code returns the code for a name, or NoCode if absent.
func (d *Dict) Code(name string) Code {
	if c, ok := d.codes[name]; ok {
		return c
	}
	return NoCode
}

// Name returns the name for a code. It panics on an out-of-range code,
// which is always a programming error (codes only originate here).
func (d *Dict) Name(c Code) string {
	if int(c) >= len(d.names) {
		panic(fmt.Sprintf("tagdict: code %d out of range (%d tags)", c, len(d.names)))
	}
	return d.names[c]
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.names) }

// Names returns the names in code order. The returned slice is shared;
// callers must not modify it.
func (d *Dict) Names() []string { return d.names }

// MarshalBinary encodes the dictionary as
//
//	varint(count) { varint(len) bytes }*
//
// This is the form embedded (encrypted) at the head of the document
// container.
func (d *Dict) MarshalBinary() ([]byte, error) {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(d.names)))
	for _, n := range d.names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	return buf, nil
}

// ErrTruncated wraps the error of a dictionary cut short: more bytes may
// yet complete it. Every other decode error is final.
var ErrTruncated = errors.New("tagdict: truncated dictionary")

// UnmarshalBinary decodes a dictionary produced by MarshalBinary and
// returns the number of bytes consumed.
func UnmarshalBinary(data []byte) (*Dict, int, error) {
	d := New()
	n, err := d.Decode(data)
	if err != nil {
		return nil, 0, err
	}
	return d, n, nil
}

// Decode replaces d's entries with the dictionary MarshalBinary encoded
// at the head of data and returns the number of bytes consumed. It works
// in the storage d already holds: the map is cleared, not reallocated,
// and a name byte-equal to the one d held at the same code keeps that
// string — so a card re-decoding the dictionary of each header it
// authenticates allocates nothing for the names it saw last time. A zero
// Dict decodes too. On an error d holds a prefix of the entries and must
// be decoded again before use.
func (d *Dict) Decode(data []byte) (int, error) {
	prev := d.names // read at code c before the entry for c overwrites it
	d.names = d.names[:0]
	if d.codes == nil {
		d.codes = make(map[string]Code)
	}
	clear(d.codes)
	count, pos := binary.Uvarint(data)
	switch {
	case pos == 0:
		return 0, fmt.Errorf("%w: no tag count", ErrTruncated)
	case pos < 0:
		return 0, fmt.Errorf("tagdict: malformed tag count")
	case count > MaxTags:
		return 0, fmt.Errorf("tagdict: declared %d tags exceeds maximum %d", count, MaxTags)
	}
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(data[pos:])
		switch {
		case n == 0:
			return 0, fmt.Errorf("%w: length of tag %d", ErrTruncated, i)
		case n < 0:
			return 0, fmt.Errorf("tagdict: malformed length of tag %d", i)
		}
		pos += n
		// Compared as uint64: a declared length of 2^63 or more must not
		// wrap negative and slip past the bound.
		if l > uint64(len(data)-pos) {
			return 0, fmt.Errorf("%w: name of tag %d", ErrTruncated, i)
		}
		name := data[pos : pos+int(l)]
		pos += int(l)
		var s string
		if c := len(d.names); c < len(prev) && prev[c] == string(name) {
			s = prev[c]
		} else {
			s = string(name)
		}
		if _, err := d.Add(s); err != nil {
			return 0, err
		}
	}
	return pos, nil
}

// ByteSize estimates the serialized size without serializing.
func (d *Dict) ByteSize() int {
	sz := uvarintLen(uint64(len(d.names)))
	for _, n := range d.names {
		sz += uvarintLen(uint64(len(n))) + len(n)
	}
	return sz
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
