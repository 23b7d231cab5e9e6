package skipindex

import (
	"encoding/binary"
	"fmt"

	"repro/internal/tagdict"
)

// NodeMeta is the skip-index record attached to an element's opening tag
// in the encoded document stream.
type NodeMeta struct {
	// Tags is the set of element/attribute codes occurring strictly below
	// the element (its content). The element's own tag is not included:
	// by the time the SOE reads the record it has already seen that tag.
	Tags Set
	// ContentSize is the number of encoded bytes from just after the
	// node's header up to and including its closing opcode. Advancing the
	// stream by ContentSize bytes lands immediately after the element.
	ContentSize int
}

// EncodeRoot encodes a set against the full universe: one bit per
// dictionary code, LSB-first within each byte.
func EncodeRoot(s Set) []byte {
	out := make([]byte, (s.n+7)/8)
	for i := 0; i < s.n; i++ {
		if s.Has(codeAt(i)) {
			out[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return out
}

// DecodeRoot decodes an EncodeRoot image for a universe of n codes and
// returns the bytes consumed.
func DecodeRoot(data []byte, n int) (Set, int, error) {
	need := (n + 7) / 8
	if len(data) < need {
		return Set{}, 0, fmt.Errorf("skipindex: truncated root bitmap (need %d bytes, have %d)", need, len(data))
	}
	s := NewSet(n)
	for i := 0; i < n; i++ {
		if data[i>>3]&(1<<(uint(i)&7)) != 0 {
			s.Add(codeAt(i))
		}
	}
	return s, need, nil
}

// EncodeRel encodes child relative to parent: the paper's "recursive
// compression". Only codes present in parent can be present in child
// (a subtree's tag set is a subset of its ancestor's), so the encoding
// spends one bit per *member* of parent, in ascending code order.
// EncodeRel panics if child is not a subset of parent, which would be an
// encoder bug, never a data condition.
func EncodeRel(child, parent Set) []byte {
	return appendRel(make([]byte, 0, RelSize(parent)), child, parent)
}

// appendRel appends EncodeRel's image to dst, written in place one
// parent word at a time (the walk DecodeRelInto reads it back with).
func appendRel(dst []byte, child, parent Set) []byte {
	if !child.SubsetOf(parent) {
		panic("skipindex: child tag set not a subset of parent's")
	}
	start := len(dst)
	dst = append(dst, make([]byte, RelSize(parent))...)
	out := dst[start:]
	bit := 0
	for wi, w := range parent.words {
		cw := child.words[wi]
		for ; w != 0; w &= w - 1 {
			if cw&(w&-w) != 0 {
				out[bit>>3] |= 1 << (uint(bit) & 7)
			}
			bit++
		}
	}
	return dst
}

// RelSize returns the number of bytes EncodeRel produces for the given
// parent set.
func RelSize(parent Set) int { return (parent.Count() + 7) / 8 }

// DecodeRel decodes an EncodeRel image against the parent set and returns
// the bytes consumed.
func DecodeRel(data []byte, parent Set) (Set, int, error) {
	s := NewSet(parent.n)
	n, err := DecodeRelInto(s, data, parent)
	if err != nil {
		return Set{}, 0, err
	}
	return s, n, nil
}

// DecodeRelInto is DecodeRel into a set the caller owns (same universe
// as parent; whatever it held is overwritten), so a streaming decoder
// can keep one set per nesting depth instead of making one per record.
func DecodeRelInto(dst Set, data []byte, parent Set) (int, error) {
	if dst.n != parent.n {
		return 0, fmt.Errorf("skipindex: decoding into a set over %d codes against a parent over %d", dst.n, parent.n)
	}
	need := RelSize(parent)
	if len(data) < need {
		return 0, fmt.Errorf("skipindex: truncated relative bitmap (need %d bytes, have %d)", need, len(data))
	}
	clear(dst.words)
	bit := 0
	for wi, w := range parent.words {
		for ; w != 0; w &= w - 1 {
			if data[bit>>3]&(1<<(uint(bit)&7)) != 0 {
				dst.words[wi] |= w & -w
			}
			bit++
		}
	}
	return need, nil
}

// AppendMeta appends the encoded NodeMeta (relative bitmap + varint
// content size) to dst, compressing the tag set against the parent set.
func AppendMeta(dst []byte, meta NodeMeta, parent Set) []byte {
	dst = appendRel(dst, meta.Tags, parent)
	dst = binary.AppendUvarint(dst, uint64(meta.ContentSize))
	return dst
}

// MetaSize returns the encoded size of a NodeMeta with the given content
// size whose bitmap takes relSize bytes (RelSize of the parent set). The
// two are separate because an encoder sizing a document bottom-up knows
// a node's content size before it knows the parent's complete tag set.
func MetaSize(relSize, contentSize int) int {
	return relSize + uvarintLen(uint64(contentSize))
}

// DecodeMeta decodes a NodeMeta encoded by AppendMeta, given the parent
// set the bitmap was compressed against. It returns the bytes consumed.
func DecodeMeta(data []byte, parent Set) (NodeMeta, int, error) {
	tags, n, err := DecodeRel(data, parent)
	if err != nil {
		return NodeMeta{}, 0, err
	}
	size, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return NodeMeta{}, 0, fmt.Errorf("skipindex: truncated content size")
	}
	return NodeMeta{Tags: tags, ContentSize: int(size)}, n + m, nil
}

// codeAt converts a universe index to a tag code.
func codeAt(i int) tagdict.Code { return tagdict.Code(i) }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
