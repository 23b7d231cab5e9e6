package docenc

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/secure"
	"repro/internal/skipindex"
	"repro/internal/tagdict"
	"repro/internal/xmlstream"
)

// Source is the byte stream the Decoder pulls the plaintext payload from.
// Inside the SOE the implementation draws on block-by-block decryption
// and turns Skip into blocks never requested; outside it is a plain
// buffer.
type Source interface {
	// ReadByte returns the next payload byte, io.EOF past the end.
	ReadByte() (byte, error)
	// Take returns the next n payload bytes as a view of the source's own
	// buffer, or fails without consuming anything. The view is valid until
	// the next call on the source; the decoder hands it out as Item.Text.
	Take(n int) ([]byte, error)
	// Skip advances n bytes without delivering them.
	Skip(n int) error
	// Offset reports the current plaintext offset.
	Offset() int
	// Avail reports how many bytes can be read without new input.
	Avail() int
	// Remaining reports how many bytes lie between the current offset and
	// the end of the payload, buffered or not: the bound every length the
	// payload declares is checked against.
	Remaining() int
}

// ErrNeedMore is what a Source fed piece by piece returns when the bytes
// asked for have not arrived yet. The decoder passes it on as is (no
// wrapping: it is the per-block signal of the card's feed loop, not a
// failure) and has changed no state of its own, so the caller rewinds the
// source to the start of the item, feeds more input and calls Next again.
var ErrNeedMore = errors.New("docenc: source needs more input")

// ItemKind discriminates decoded stream items.
type ItemKind uint8

// Decoded item kinds.
const (
	// ItemOpen is an element (or attribute pseudo-element) opening.
	ItemOpen ItemKind = iota
	// ItemValue is a complete (small) text node.
	ItemValue
	// ItemValueStart announces a large text node of Size bytes; its
	// content follows as ItemValueChunk items. Streaming large values in
	// bounded chunks is what lets the SOE forward payloads bigger than
	// its working memory (dissemination streams).
	ItemValueStart
	// ItemValueChunk carries a piece of a large text node; Last marks
	// the final piece.
	ItemValueChunk
	// ItemClose closes the innermost open element.
	ItemClose
	// ItemEOF marks the clean end of the payload.
	ItemEOF
)

// Item is one decoded stream element.
type Item struct {
	Kind ItemKind
	// Code is the tag for ItemOpen.
	Code tagdict.Code
	// Meta is the skip-index record of an indexed open, nil otherwise.
	Meta *skipindex.NodeMeta
	// Text is the character data of ItemValue/ItemValueChunk: a view of
	// the source's buffer, valid until the next call to the decoder.
	Text []byte
	// Size is the total value length for ItemValueStart.
	Size int
	// Last marks the final chunk of a streamed value.
	Last bool
}

// InlineValueLimit is the largest text node delivered as a single
// ItemValue; longer values are streamed in chunks.
const InlineValueLimit = 64

// ValueChunkSize bounds one streamed chunk.
const ValueChunkSize = 256

// Decoder incrementally parses the structure stream. Its own memory use
// is bounded regardless of input: large values stream through in
// ValueChunkSize pieces, and the tag set of each nesting depth is decoded
// into a slot that survives the pop, so a decoder allocates only while
// it meets a depth for the first time.
type Decoder struct {
	src Source
	// dictLen bounds valid tag codes.
	dictLen int

	// parents holds the content tag sets of enclosing indexed nodes;
	// parents[0] is the full dictionary universe. Slots past len keep
	// their sets for the next indexed open at that depth.
	parents []skipindex.Set
	// hadMeta records, per open element, whether it pushed onto parents.
	hadMeta []bool
	// valueRemaining is the unread byte count of an in-flight streamed
	// value.
	valueRemaining int
	done           bool
	meta           skipindex.NodeMeta // scratch for the last open's record
}

// NewDecoder returns a Decoder positioned at the root node record (after
// the dictionary).
func NewDecoder(src Source, dict *tagdict.Dict) *Decoder {
	d := &Decoder{}
	d.Reset(src, dict)
	return d
}

// Reset points the decoder at the root node record of another payload,
// keeping the storage it has grown.
func (d *Decoder) Reset(src Source, dict *tagdict.Dict) {
	n := dict.Len()
	if len(d.parents) == 0 {
		d.parents = append(d.parents, skipindex.Set{})
	}
	if d.parents[0].Universe() != n {
		universe := skipindex.NewSet(n)
		for i := 0; i < n; i++ {
			universe.Add(tagdict.Code(i))
		}
		d.parents[0] = universe
	}
	d.src, d.dictLen = src, n
	d.parents = d.parents[:1]
	d.hadMeta = d.hadMeta[:0]
	d.valueRemaining, d.done = 0, false
}

// Next decodes the next item.
func (d *Decoder) Next() (Item, error) {
	if d.done {
		return Item{Kind: ItemEOF}, nil
	}
	if d.valueRemaining > 0 {
		return d.nextChunk()
	}
	op, err := d.src.ReadByte()
	if err == io.EOF {
		if len(d.hadMeta) != 0 {
			return Item{}, fmt.Errorf("docenc: payload ended with %d open element(s)", len(d.hadMeta))
		}
		d.done = true
		return Item{Kind: ItemEOF}, nil
	}
	if err != nil {
		return Item{}, err
	}
	if len(d.hadMeta) == 0 && op != opOpenMeta && op != opOpenPlain {
		return Item{}, fmt.Errorf("docenc: expected a root element record, got opcode %#x", op)
	}
	switch op {
	case opOpenMeta, opOpenPlain:
		code, err := d.uvarint()
		if err != nil {
			return Item{}, srcErr("tag code", err)
		}
		if code >= uint64(d.dictLen) {
			return Item{}, fmt.Errorf("docenc: tag code %d outside the %d-entry dictionary", code, d.dictLen)
		}
		it := Item{Kind: ItemOpen, Code: tagdict.Code(code)}
		if op == opOpenMeta {
			if err := d.readMeta(); err != nil {
				return Item{}, err
			}
			it.Meta = &d.meta
			d.parents = d.parents[:len(d.parents)+1] // the slot readMeta filled
			d.hadMeta = append(d.hadMeta, true)
		} else {
			d.hadMeta = append(d.hadMeta, false)
		}
		return it, nil
	case opClose:
		if len(d.hadMeta) == 0 {
			return Item{}, fmt.Errorf("docenc: unbalanced close record")
		}
		d.pop()
		return Item{Kind: ItemClose}, nil
	case opValue:
		l, err := d.uvarint()
		if err != nil {
			return Item{}, srcErr("value length", err)
		}
		if len(d.hadMeta) == 0 {
			return Item{}, fmt.Errorf("docenc: value outside the root element")
		}
		// Compared as uint64: a declared length of 2^63 or more must not
		// wrap negative on its way to an int.
		if l > uint64(d.src.Remaining()) {
			return Item{}, fmt.Errorf("docenc: malformed payload: a %d-byte value with %d bytes left", l, d.src.Remaining())
		}
		if l <= InlineValueLimit {
			text, err := d.src.Take(int(l))
			if err != nil {
				return Item{}, srcErr("value body", err)
			}
			return Item{Kind: ItemValue, Text: text}, nil
		}
		d.valueRemaining = int(l)
		return Item{Kind: ItemValueStart, Size: int(l)}, nil
	default:
		return Item{}, fmt.Errorf("docenc: unknown opcode %#x at offset %d", op, d.src.Offset()-1)
	}
}

// nextChunk serves the next piece of an in-flight streamed value. A chunk
// consumes only bytes already buffered, so it never needs rollback.
func (d *Decoder) nextChunk() (Item, error) {
	avail := d.src.Avail()
	if avail == 0 {
		// Force the source to say why: more input needed, or truncation.
		if _, err := d.src.ReadByte(); err != nil {
			if err == io.EOF {
				return Item{}, fmt.Errorf("docenc: payload ends inside a value (%d bytes missing)", d.valueRemaining)
			}
			return Item{}, err
		}
		return Item{}, fmt.Errorf("docenc: source reported no available bytes but served one")
	}
	n := d.valueRemaining
	if n > avail {
		n = avail
	}
	if n > ValueChunkSize {
		n = ValueChunkSize
	}
	text, err := d.src.Take(n)
	if err != nil {
		return Item{}, srcErr("value chunk", err)
	}
	d.valueRemaining -= n
	return Item{Kind: ItemValueChunk, Text: text, Last: d.valueRemaining == 0}, nil
}

// SkipValue jumps over the unread remainder of a streamed value (after
// ItemValueStart), as if all its chunks had been read.
func (d *Decoder) SkipValue() error {
	if d.valueRemaining == 0 {
		return fmt.Errorf("docenc: no value in flight to skip")
	}
	if err := d.src.Skip(d.valueRemaining); err != nil {
		return fmt.Errorf("docenc: skipping %d value bytes: %w", d.valueRemaining, err)
	}
	d.valueRemaining = 0
	return nil
}

// SkipContent jumps over the content of the element whose indexed open
// was just returned by Next, leaving the decoder positioned after the
// element, as if it had been read and closed.
func (d *Decoder) SkipContent(meta *skipindex.NodeMeta) error {
	if meta == nil {
		return fmt.Errorf("docenc: cannot skip a node without an index record")
	}
	if err := d.src.Skip(meta.ContentSize); err != nil {
		return fmt.Errorf("docenc: skipping %d bytes: %w", meta.ContentSize, err)
	}
	if len(d.hadMeta) == 0 {
		return fmt.Errorf("docenc: skip with no open element")
	}
	d.pop()
	return nil
}

func (d *Decoder) pop() {
	if d.hadMeta[len(d.hadMeta)-1] {
		d.parents = d.parents[:len(d.parents)-1]
	}
	d.hadMeta = d.hadMeta[:len(d.hadMeta)-1]
}

// readMeta decodes a skip-index record against the innermost parent set
// into d.meta; its tag set lands in the slot just past the parents stack,
// which the caller pushes.
func (d *Decoder) readMeta() error {
	depth := len(d.parents)
	parent := d.parents[depth-1]
	bm, err := d.src.Take(skipindex.RelSize(parent))
	if err != nil {
		return srcErr("index bitmap", err)
	}
	if depth == cap(d.parents) {
		d.parents = append(d.parents, skipindex.Set{})[:depth]
	}
	// The slot is new, or was left by a payload with another dictionary.
	slot := &d.parents[:depth+1][depth]
	if slot.Universe() != d.dictLen {
		*slot = skipindex.NewSet(d.dictLen)
	}
	tags := *slot
	if _, err := skipindex.DecodeRelInto(tags, bm, parent); err != nil {
		return err
	}
	size, err := d.uvarint()
	if err != nil {
		return srcErr("content size", err)
	}
	if size > uint64(d.src.Remaining()) {
		return fmt.Errorf("docenc: malformed payload: element content of %d bytes with %d bytes left", size, d.src.Remaining())
	}
	d.meta = skipindex.NodeMeta{Tags: tags, ContentSize: int(size)}
	return nil
}

// srcErr names what the decoder was reading when its source failed. The
// need-more signal stays bare (see ErrNeedMore).
func srcErr(what string, err error) error {
	if err == ErrNeedMore {
		return err
	}
	return fmt.Errorf("docenc: %s: %w", what, err)
}

func (d *Decoder) uvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return 0, fmt.Errorf("varint overflow")
		}
		b, err := d.src.ReadByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, nil
		}
	}
}

// BytesSource is an in-memory Source.
type BytesSource struct {
	data []byte
	off  int
}

// NewBytesSource wraps a payload slice.
func NewBytesSource(data []byte) *BytesSource { return &BytesSource{data: data} }

// ReadByte implements Source.
func (s *BytesSource) ReadByte() (byte, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	b := s.data[s.off]
	s.off++
	return b, nil
}

// Take implements Source.
func (s *BytesSource) Take(n int) ([]byte, error) {
	if n < 0 || n > len(s.data)-s.off {
		return nil, io.ErrUnexpectedEOF
	}
	b := s.data[s.off : s.off+n : s.off+n]
	s.off += n
	return b, nil
}

// Skip implements Source.
func (s *BytesSource) Skip(n int) error {
	if n < 0 || n > len(s.data)-s.off {
		return fmt.Errorf("docenc: skip of %d bytes at offset %d overruns payload of %d",
			n, s.off, len(s.data))
	}
	s.off += n
	return nil
}

// Offset implements Source.
func (s *BytesSource) Offset() int { return s.off }

// Avail implements Source.
func (s *BytesSource) Avail() int { return len(s.data) - s.off }

// Remaining implements Source.
func (s *BytesSource) Remaining() int { return len(s.data) - s.off }

// ParsePayload splits a decrypted payload into its dictionary and a
// decoder over the structure stream.
func ParsePayload(payload []byte) (*tagdict.Dict, *Decoder, error) {
	dict, n, err := tagdict.UnmarshalBinary(payload)
	if err != nil {
		return nil, nil, err
	}
	src := NewBytesSource(payload)
	if err := src.Skip(n); err != nil {
		return nil, nil, err
	}
	return dict, NewDecoder(src, dict), nil
}

// DecodeDocument decrypts a container entirely and rebuilds the document
// tree: the round-trip check (Encode then DecodeDocument must be the
// identity) and the trusted-terminal baseline both use it.
func DecodeDocument(c *Container, key secure.DocKey) (*xmlstream.Node, error) {
	payload, err := c.DecryptPayload(key)
	if err != nil {
		return nil, err
	}
	dict, dec, err := ParsePayload(payload)
	if err != nil {
		return nil, err
	}
	var stack []*xmlstream.Node
	var root *xmlstream.Node
	var valueBuf []byte
	for {
		it, err := dec.Next()
		if err != nil {
			return nil, err
		}
		switch it.Kind {
		case ItemOpen:
			n := &xmlstream.Node{Name: dict.Name(it.Code)}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				p.Children = append(p.Children, n)
			} else if root == nil {
				root = n
			} else {
				return nil, fmt.Errorf("docenc: second root in payload")
			}
			stack = append(stack, n)
		case ItemValue:
			if len(stack) == 0 {
				return nil, fmt.Errorf("docenc: value outside root")
			}
			p := stack[len(stack)-1]
			p.Children = append(p.Children, &xmlstream.Node{Text: string(it.Text)})
		case ItemValueStart:
			valueBuf = valueBuf[:0]
		case ItemValueChunk:
			valueBuf = append(valueBuf, it.Text...)
			if it.Last {
				if len(stack) == 0 {
					return nil, fmt.Errorf("docenc: value outside root")
				}
				p := stack[len(stack)-1]
				p.Children = append(p.Children, &xmlstream.Node{Text: string(valueBuf)})
			}
		case ItemClose:
			stack = stack[:len(stack)-1]
		case ItemEOF:
			if root == nil {
				return nil, fmt.Errorf("docenc: empty payload")
			}
			return root, nil
		}
	}
}
