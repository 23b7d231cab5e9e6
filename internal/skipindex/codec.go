package skipindex

import (
	"encoding/binary"
	"fmt"
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

// appendRel appends child's image relative to parent to dst: the paper's
// "recursive compression". Only codes present in parent can be present
// in child (a subtree's tag set is a subset of its ancestor's), so the
// image spends one bit per *member* of parent, in ascending code order,
// written in place one parent word at a time (the walk DecodeRelInto
// reads it back with). appendRel panics if child is not a subset of
// parent, which would be an encoder bug, never a data condition.
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

// RelSize returns the number of bytes appendRel produces for the given
// parent set.
func RelSize(parent Set) int { return (parent.Count() + 7) / 8 }

// DecodeRelInto decodes an appendRel image against the parent set into a
// set the caller owns (same universe as parent; whatever it held is
// overwritten), so a streaming decoder can keep one set per nesting depth
// instead of making one per record. It returns the bytes consumed.
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

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
