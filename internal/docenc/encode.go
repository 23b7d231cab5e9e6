// Package docenc implements the encrypted document container: the form
// XML documents take on the untrusted DSP.
//
// The plaintext payload is the tag-dictionary-compressed structure stream
// of Section 2.3 with the skip index interleaved: every sufficiently
// large element's opening record embeds the set of tags occurring in its
// content (recursively compressed against its parent's set) and its
// encoded content size, so the SOE can decide — before decrypting a
// subtree — whether anything can fire inside it, and jump over it
// otherwise. The payload is cut into fixed-size blocks, each encrypted
// and integrity-tagged independently (package secure), so skipped blocks
// are never transmitted nor decrypted.
//
// Payload layout:
//
//	dict                     tagdict.MarshalBinary
//	node                     (the root element)
//
//	node      := openMeta | openPlain
//	openMeta  := 0x01 varint(code) relBitmap varint(len(content)) content
//	openPlain := 0x02 varint(code) content
//	content   := (node | value)* 0x03
//	value     := 0x04 varint(len) bytes
//
// A node gets a skip-index record (openMeta) when its encoded content is
// at least MinSkipBytes; since a child's content is strictly contained in
// its parent's, index-free subtrees are contiguous and the decoder's
// parent-set stack stays consistent.
//
// Encoding is a streaming two-phase pass. The sizing pass builds a Plan:
// a counting walk sizes its slabs, an annotating walk fills in every
// element's code and content tag set, and a resizing walk its exact
// encoded size (sizes, not bytes). The emitter then produces the payload
// front to back in one pass, appending each record to the current block
// and encrypting and handing off each block as it fills. No payload or
// container image is ever materialized — the resident state is the slabs
// plus one plaintext block, and the number of allocations does not
// depend on the size of the document (the stored blocks handed to the
// caller aside).
//
// A re-publishing caller keeps the Plan across diffs
// (DiffEncodePayload). All of it but the sizes follows from the tree's
// shape, so for a tree of the same shape the sizing pass is the resizing
// walk alone, which checks the shape and recomputes the sizes. The plan
// also remembers where each record sat in the payload it last emitted:
// when the next diff's base is that very payload, the walk finds the
// subtrees whose bytes it would emit again, the emitter copies each from
// the base in one piece, and re-emits only the records an edit touched
// and their ancestors.
package docenc

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/secure"
	"repro/internal/skipindex"
	"repro/internal/tagdict"
	"repro/internal/xmlstream"
)

// Structure stream opcodes.
const (
	opOpenMeta  = 0x01
	opOpenPlain = 0x02
	opClose     = 0x03
	opValue     = 0x04
)

// DefaultBlockPlain is the default plaintext bytes per cipher block. Small
// blocks keep skip granularity fine and fit one block per APDU, matching
// the constraints of the paper's target card.
const DefaultBlockPlain = 128

// DefaultMinSkipBytes is the default content size under which a node
// carries no index record (the record would cost more than it saves).
const DefaultMinSkipBytes = 64

// EncodeOptions parameterizes Encode.
type EncodeOptions struct {
	// DocID names the document (bound into every block tag).
	DocID string
	// Version of the document (re-publication bumps it).
	Version uint32
	// Key protects the document.
	Key secure.DocKey
	// BlockPlain is the plaintext block size (default DefaultBlockPlain).
	BlockPlain int
	// MinSkipBytes is the indexing threshold (default DefaultMinSkipBytes).
	MinSkipBytes int
	// DisableIndex omits all skip-index records (ablation baseline).
	DisableIndex bool
}

func (o *EncodeOptions) normalize() error {
	if o.DocID == "" {
		return fmt.Errorf("docenc: DocID is required")
	}
	if o.BlockPlain == 0 {
		o.BlockPlain = DefaultBlockPlain
	}
	if o.BlockPlain < 32 || o.BlockPlain > 65536 {
		return fmt.Errorf("docenc: BlockPlain %d outside [32,65536]", o.BlockPlain)
	}
	if o.MinSkipBytes == 0 {
		o.MinSkipBytes = DefaultMinSkipBytes
	}
	return nil
}

// EncodeInfo reports how the payload decomposes; experiment E4 (index
// overhead) reads it.
type EncodeInfo struct {
	Dict           *tagdict.Dict
	PayloadBytes   int
	DictBytes      int
	IndexBytes     int // bytes spent on skip-index records
	StructureBytes int // opcodes and tag codes
	TextBytes      int // value payloads (with length prefixes)
	Nodes          int
	IndexedNodes   int
	StoredBytes    int // total ciphertext+tag bytes on the DSP
	// FlatIndexBytes is what the index would cost WITHOUT the paper's
	// recursive compression (every bitmap over the full dictionary): the
	// E4 ablation, computed analytically during encoding.
	FlatIndexBytes int
}

// Encode compresses, indexes, encrypts and packages a document. It is
// the buffered convenience over Encoder: the streaming pass collects
// into a Container.
func Encode(root *xmlstream.Node, opts EncodeOptions) (*Container, *EncodeInfo, error) {
	enc, err := NewEncoder(root, opts)
	if err != nil {
		return nil, nil, err
	}
	c := &Container{Header: enc.Header(), Blocks: make([][]byte, 0, enc.NumBlocks())}
	if err := enc.Run(func(idx int, stored []byte) error {
		c.Blocks = append(c.Blocks, stored)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	info := enc.Info()
	info.StoredBytes = c.StoredSize()
	return c, info, nil
}

// EncodePayload builds the plaintext payload (dictionary + indexed
// structure stream) without encrypting it. Engine-only benchmarks and the
// index-overhead experiment use it directly.
func EncodePayload(root *xmlstream.Node, opts EncodeOptions) ([]byte, *EncodeInfo, error) {
	if opts.DocID == "" {
		opts.DocID = "payload-only"
	}
	p := new(Plan)
	if err := p.size(root, opts, nil); err != nil {
		return nil, nil, err
	}
	// The payload is one block as long as itself.
	var out []byte
	bb := &blockBuilder{
		buf:  make([]byte, 0, p.payloadLen),
		emit: func(_ int, plain []byte) error { out = plain; return nil },
	}
	p.emit(bb, root)
	if err := bb.finish(); err != nil {
		return nil, nil, err
	}
	if len(out) != p.payloadLen || bb.idx != 1 {
		return nil, nil, fmt.Errorf("docenc: emitted %d payload bytes, sizing pass computed %d",
			bb.total, p.payloadLen)
	}
	return out, p.info, nil
}

// Seal encrypts a ready payload into a container (the buffered last
// stage, exposed for re-encryption experiments; the streaming Encoder
// never goes through it).
func Seal(payload []byte, opts EncodeOptions) (*Container, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	c := &Container{
		Header: Header{
			DocID:      opts.DocID,
			Version:    opts.Version,
			BlockPlain: uint32(opts.BlockPlain),
			PayloadLen: uint64(len(payload)),
		},
	}
	sctx, err := secure.NewBlockContext(opts.Key)
	if err != nil {
		return nil, err
	}
	c.Header.MAC = sctx.HeaderMAC(c.Header.canonical())
	for i := 0; i < len(payload); i += opts.BlockPlain {
		end := i + opts.BlockPlain
		if end > len(payload) {
			end = len(payload)
		}
		blk, err := sctx.EncryptBlock(opts.DocID, opts.Version,
			uint32(len(c.Blocks)), payload[i:end])
		if err != nil {
			return nil, err
		}
		c.Blocks = append(c.Blocks, blk)
	}
	return c, nil
}

// nodeInfo is one element's annotation from the sizing walk. The
// annotations live in one slab in document (preorder) order, so the
// emitter, which visits elements in the same order, reads them with a
// cursor; element i's content tag set is window i of the plan's tag
// slab.
type nodeInfo struct {
	// name and elements (the number of element children) are the slot's
	// part of the document's shape: what a kept plan is checked against.
	name string
	// contentSize is the exact byte size of the node's encoded content
	// (children records, values, closing opcode) — the skip record's
	// jump distance, known before a single byte is emitted.
	contentSize int
	// at is where the element's record starts in its parent's content
	// as last sized, an offset that holds wherever the parent's record
	// goes; src is where it starts in the base the emitter copies from.
	// Both fit: only a payload under 2 GiB is copied from.
	at, src  int32
	elements int32
	// end is one past the last slot of the element's subtree.
	end int32
	// rel is the size of a bitmap relative to the element's content tag
	// set: what each skip record among its children spends on one.
	rel  int32
	code tagdict.Code
	// indexed records the sizing walk's decision to attach a skip record.
	indexed bool
	// dirty is the sizing walk's finding that the element's record is
	// not byte for byte its record in the base: the emitter writes a
	// dirty record and copies a clean one.
	dirty bool
}

// Plan is the outcome of the sizing pass: everything the emitter needs
// to stream a payload of exactly payloadLen bytes in one pass.
//
// Most of it depends only on the document's shape — the preorder
// sequence of (element name, element-child count): the dictionary and
// its image, every code and every content tag set. Only the content
// sizes and the index decisions depend on the values. A caller that
// re-publishes one document keeps its Plan across diffs
// (DiffEncodePayload), and a tree of the same shape then costs one
// sizing walk that checks the shape slot by slot and recomputes the
// sizes; any other tree is planned afresh. Whether a plan fits is
// checked against the tree on every call, never inferred from the
// version it was last used for.
//
// The plan also knows where each record sat in the payload it last
// emitted. When a diff's base is that payload — the same buffer, at the
// same length — the sizing walk marks dirty each element whose size or
// index decision moved, under which a value differs from the bytes at
// its place in the base, or under which a dirty element lies; the
// emitter re-emits the dirty records and copies each clean subtree from
// the base in one piece. Over any other base every record is emitted.
// The zero value is an empty plan; a Plan must not be used by two
// encodings at once.
type Plan struct {
	opts      EncodeOptions
	dict      *tagdict.Dict
	info      *EncodeInfo
	dictImage []byte
	// nodes and tagWords are the two slabs of the sizing walk, sized by
	// the counting walk: one nodeInfo and setWords words per element.
	nodes    []nodeInfo
	tagWords []uint64
	setWords int
	// cursor is the next slab slot: the sizing walk hands slots out, the
	// emitter reads them back in the same order.
	cursor int
	// payloadLen is the exact total payload size, known up front — what
	// lets the streaming encoder MAC the header before emitting blocks.
	payloadLen int
	// last is the payload of the plan's last complete emission, set by
	// the diff that returned it; base is last while an encoding copies
	// from it, and nil when every record is emitted.
	last, base []byte
}

// MemBytes is the memory the plan holds, what a caller that keeps it
// counts against its retention bound. The payload it last emitted is
// the caller's, and not counted here.
func (p *Plan) MemBytes() int {
	return cap(p.nodes)*int(unsafe.Sizeof(nodeInfo{})) + 8*cap(p.tagWords) + cap(p.dictImage)
}

// countTags is the counting walk: how many elements the tree has and how
// often each tag occurs, which is all the dictionary and the slabs need.
func countTags(n *xmlstream.Node, counts map[string]int) int {
	counts[n.Name]++
	elements := 1
	for _, c := range n.Children {
		if !c.IsText() {
			elements += countTags(c, counts)
		}
	}
	return elements
}

// size is the sizing pass, fitting p to root under opts. It is one walk
// when p was last sized for a tree of root's shape under the same index
// options: the resizing walk checks every slot's shape fields and
// recomputes the sizes only, and when base is the payload p last
// emitted, finds the records the emitter can copy from it. At the first
// slot that differs, or over any other plan, the counting and annotating
// walks fill p's shape anew and the resizing walk sizes it. The walk
// also fills in EncodeInfo: its byte counters follow from the sizes and
// the index decisions alone.
func (p *Plan) size(root *xmlstream.Node, opts EncodeOptions, base []byte) error {
	if root == nil || root.IsText() {
		return fmt.Errorf("docenc: document root must be an element")
	}
	if err := opts.normalize(); err != nil {
		return err
	}
	fits := p.dict != nil && opts.MinSkipBytes == p.opts.MinSkipBytes && opts.DisableIndex == p.opts.DisableIndex
	p.opts, p.info = opts, &EncodeInfo{}
	// Only the plan's own last emission, in its buffer at its length, is
	// copied from: of no other bytes are the records' places known.
	p.base = nil
	if len(base) > 0 && len(base) <= math.MaxInt32 && len(base) == len(p.last) && unsafe.SliceData(base) == unsafe.SliceData(p.last) {
		p.base = base
	}
	p.last = nil
	if !fits || !p.resizeAll(root) {
		p.base = nil
		if err := p.fill(root); err != nil {
			*p = Plan{}
			return err
		}
		p.resizeAll(root) // root has the shape just filled in
	}
	i := p.info
	i.Dict, i.Nodes, i.DictBytes, i.PayloadBytes = p.dict, len(p.nodes), len(p.dictImage), p.payloadLen
	i.TextBytes = i.PayloadBytes - i.DictBytes - i.IndexBytes - i.StructureBytes
	return nil
}

// resizeAll runs the resizing walk from the root, counting from zero,
// and reports whether root has the plan's shape.
func (p *Plan) resizeAll(root *xmlstream.Node) bool {
	p.cursor, *p.info = 0, EncodeInfo{}
	rec, _, fits := p.resize(root, 0, len(p.dictImage), skipindex.RelSize(p.universe()))
	p.payloadLen = len(p.dictImage) + rec
	return fits && p.cursor == len(p.nodes)
}

// fill gives p root's shape from nothing: the counting walk builds the
// dictionary and sizes the slabs, the annotating walk fills in names,
// codes and tag sets.
func (p *Plan) fill(root *xmlstream.Node) error {
	counts := make(map[string]int)
	elements := countTags(root, counts)
	dict, err := tagdict.FromCounts(counts)
	if err != nil {
		return err
	}
	p.dict = dict
	p.setWords = skipindex.SetWords(dict.Len())
	p.nodes = make([]nodeInfo, elements)
	// One extra window at the end holds the root's parent set: every code.
	p.tagWords = make([]uint64, (elements+1)*p.setWords)
	p.cursor = 0
	if _, err := p.annotate(root); err != nil {
		return err
	}
	if p.dictImage, err = dict.MarshalBinary(); err != nil {
		return err
	}
	universe := p.universe()
	for i := 0; i < dict.Len(); i++ {
		universe.Add(tagdict.Code(i))
	}
	return nil
}

// tags is the content tag set of element i (codes strictly below it).
func (p *Plan) tags(i int) skipindex.Set {
	return skipindex.SetOver(p.tagWords[i*p.setWords:(i+1)*p.setWords], p.dict.Len())
}

// universe is the root's parent set, every code of the dictionary: the
// window after the last element's.
func (p *Plan) universe() skipindex.Set { return p.tags(len(p.nodes)) }

// annotate records shape, codes and tag sets bottom-up and returns the
// slab slot it gave n. The sizes are the resizing walk's: a child's
// record is measured against its parent's complete tag set (the
// recursive compression of the paper), only known once annotate is
// done with the parent.
func (p *Plan) annotate(n *xmlstream.Node) (int, error) {
	code := p.dict.Code(n.Name)
	if code == tagdict.NoCode {
		return 0, fmt.Errorf("docenc: tag %q missing from dictionary", n.Name)
	}
	slot := p.cursor
	p.cursor++
	info, tags := &p.nodes[slot], p.tags(slot)
	info.name, info.code = n.Name, code
	for _, c := range n.Children {
		if c.IsText() {
			continue
		}
		ci, err := p.annotate(c)
		if err != nil {
			return 0, err
		}
		info.elements++
		tags.Add(p.nodes[ci].code)
		tags.UnionWith(p.tags(ci))
	}
	info.rel = int32(skipindex.RelSize(tags))
	info.end = int32(p.cursor)
	return slot, nil
}

// resize sizes the element in the plan's next slot, checking that n has
// its shape: it records exact sizes, index decisions and places
// bottom-up, and reports false at the first slot whose name or
// element-child count is not n's. n's record starts at offset at of its
// parent's content (of the payload, for the root), its bitmap, if it
// has one, takes relSize bytes, and it returns the record's size.
//
// Over a base to copy from, parent is where the parent's content starts
// in it, and n stays clean only if its record there is byte for byte
// the one n encodes to now: n's content size and index decision are the
// ones it was emitted with, the bytes at each value's place are its
// record, and each element child is clean and starts where it started.
// Its last result says whether n's parent is dirty for n's sake: n is
// dirty, or it moved.
func (p *Plan) resize(n *xmlstream.Node, parent, at, relSize int) (int, bool, bool) {
	slot := p.cursor
	if slot == len(p.nodes) || p.nodes[slot].name != n.Name {
		return 0, false, false
	}
	p.cursor++
	info := &p.nodes[slot]
	// Where n's record and content start in the base, from the place
	// and the sizes it was emitted with, before they are overwritten.
	src := parent + int(info.at)
	content := src + p.recordSize(info, relSize) - info.contentSize
	moved := int(info.at) != at
	info.at, info.src = int32(at), int32(src)
	lastSize, lastIndexed := info.contentSize, info.indexed
	dirty := p.base == nil
	size, elements := 1, int32(0) // the closing opcode
	for _, c := range n.Children {
		at := size - 1 // where c starts in n's content
		if !c.IsText() {
			rec, changed, ok := p.resize(c, content, at, int(info.rel))
			if !ok {
				return 0, false, false
			}
			elements++
			size += rec
			dirty = dirty || changed
			continue
		}
		size += valueSize(c.Text)
		dirty = dirty || !valueAt(p.base, content+at, c.Text)
	}
	if elements != info.elements {
		return 0, false, false
	}
	p.setContentSize(info, size)
	info.dirty = dirty || size != lastSize || info.indexed != lastIndexed
	// The record's size, and its part of EncodeInfo's byte counters;
	// what is left of the payload is the values' (size).
	open := 1 + uvarintLen(uint64(info.code))
	rec := open + size
	if info.indexed {
		meta := skipindex.MetaSize(relSize, size)
		rec += meta
		p.info.IndexBytes += meta
		p.info.FlatIndexBytes += (p.dict.Len()+7)/8 + uvarintLen(uint64(size))
		p.info.IndexedNodes++
	}
	p.info.StructureBytes += open + 1 // and the closing opcode
	return rec, info.dirty || moved, true
}

// valueAt reports whether base holds text's value record at off.
func valueAt(base []byte, off int, text string) bool {
	if n := len(text); n < 0x80 { // a one-byte length
		return off+2+n <= len(base) && base[off] == opValue && base[off+1] == byte(n) && string(base[off+2:off+2+n]) == text
	}
	var head [1 + binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(append(head[:0], opValue), uint64(len(text)))
	end := off + len(h) + len(text)
	return end <= len(base) && string(base[off:off+len(h)]) == string(h) && string(base[off+len(h):end]) == text
}

// setContentSize records an element's content size and, from it, the
// decision to index it.
func (p *Plan) setContentSize(info *nodeInfo, size int) {
	info.contentSize = size
	info.indexed = !p.opts.DisableIndex && size >= p.opts.MinSkipBytes
}

// valueSize is the encoded size of a value record.
func valueSize(text string) int {
	return 1 + uvarintLen(uint64(len(text))) + len(text)
}

// recordSize is the exact encoded size of a node's record (open through
// close) when its skip record's bitmap, if it has one, takes relSize
// bytes — the size of a bitmap relative to the parent's tag set.
func (p *Plan) recordSize(info *nodeInfo, relSize int) int {
	n := 1 + uvarintLen(uint64(info.code)) + info.contentSize
	if info.indexed {
		n += skipindex.MetaSize(relSize, info.contentSize)
	}
	return n
}

// emit streams root's payload (dictionary, then the structure stream)
// into bb, front to back.
func (p *Plan) emit(bb *blockBuilder, root *xmlstream.Node) {
	bb.write(p.dictImage)
	p.cursor = 0
	var scratch []byte
	universe := p.universe()
	p.emitNode(bb, &scratch, root, universe, skipindex.RelSize(universe))
	p.base = nil
}

// emitNode writes one node's record, or copies it from the base when it
// is clean; relSize is the size of a bitmap relative to parentTags.
// scratch is a reused staging buffer for the record header (opcodes,
// varints, index record); values stream through unstaged.
func (p *Plan) emitNode(bb *blockBuilder, scratch *[]byte, n *xmlstream.Node, parentTags skipindex.Set, relSize int) {
	slot := p.cursor
	info := &p.nodes[slot]
	if !info.dirty {
		bb.write(p.base[info.src : int(info.src)+p.recordSize(info, relSize)])
		p.cursor = int(info.end)
		return
	}
	p.cursor++
	tags := p.tags(slot)
	b := (*scratch)[:0]
	if info.indexed {
		b = append(b, opOpenMeta)
		b = binary.AppendUvarint(b, uint64(info.code))
		b = skipindex.AppendMeta(b, skipindex.NodeMeta{
			Tags:        tags,
			ContentSize: info.contentSize,
		}, parentTags)
	} else {
		b = append(b, opOpenPlain)
		b = binary.AppendUvarint(b, uint64(info.code))
	}
	*scratch = b
	bb.write(b)
	for _, c := range n.Children {
		if c.IsText() {
			b = (*scratch)[:0]
			b = append(b, opValue)
			b = binary.AppendUvarint(b, uint64(len(c.Text)))
			*scratch = b
			bb.write(b)
			bb.writeString(c.Text)
			continue
		}
		p.emitNode(bb, scratch, c, tags, int(info.rel))
	}
	bb.write(closeOp)
}

// closeOp is the shared one-byte close record.
var closeOp = []byte{opClose}

// Encoder streams a document into an encrypted container in one
// bounded-memory pass: the sizing walk fixes the geometry (so the header
// can be MAC'd up front), then Run encodes, indexes and encrypts block
// by block, handing each stored block to the caller as it is produced.
// Nothing larger than one plaintext block is buffered — the publish path
// can pipe a document straight onto the wire.
type Encoder struct {
	plan   *Plan
	root   *xmlstream.Node
	header Header
	sctx   *secure.BlockContext
	ran    bool
}

// NewEncoder runs the sizing pass and seals the header.
func NewEncoder(root *xmlstream.Node, opts EncodeOptions) (*Encoder, error) {
	e, err := newEncoder(root, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	if e.sctx, err = secure.NewBlockContext(e.plan.opts.Key); err != nil {
		return nil, err
	}
	e.header.MAC = e.sctx.HeaderMAC(e.header.canonical())
	return e, nil
}

// newEncoder is NewEncoder with the header left unsealed, sizing root
// through p (a fresh plan when p is nil) over base (see Plan.size).
func newEncoder(root *xmlstream.Node, opts EncodeOptions, p *Plan, base []byte) (*Encoder, error) {
	if opts.DocID == "" {
		return nil, fmt.Errorf("docenc: DocID is required")
	}
	if p == nil {
		p = new(Plan)
	}
	if err := p.size(root, opts, base); err != nil {
		return nil, err
	}
	return &Encoder{plan: p, root: root, header: Header{
		DocID:      p.opts.DocID,
		Version:    p.opts.Version,
		BlockPlain: uint32(p.opts.BlockPlain),
		PayloadLen: uint64(p.payloadLen),
	}}, nil
}

// Header returns the sealed container header (valid before Run: the
// publish handshake sends it first).
func (e *Encoder) Header() Header { return e.header }

// NumBlocks reports how many stored blocks Run will emit.
func (e *Encoder) NumBlocks() int { return e.header.NumBlocks() }

// Info returns the encoding statistics. All but StoredBytes are final
// after NewEncoder; Run fills StoredBytes in as blocks leave.
func (e *Encoder) Info() *EncodeInfo { return e.plan.info }

// Run streams the stored blocks, in order, to emit. It can be called
// once.
func (e *Encoder) Run(emit func(idx int, stored []byte) error) error {
	return e.runPlain(func(idx int, plain []byte) error {
		stored, err := e.sctx.EncryptBlock(e.plan.opts.DocID,
			e.plan.opts.Version, uint32(idx), plain)
		if err != nil {
			return err
		}
		e.plan.info.StoredBytes += len(stored)
		return emit(idx, stored)
	})
}

// runPlain streams the plaintext blocks (the delta differ hooks in here,
// deciding per block whether re-encryption is needed at all).
func (e *Encoder) runPlain(emit func(idx int, plain []byte) error) error {
	if e.ran {
		return fmt.Errorf("docenc: encoder already ran")
	}
	e.ran = true
	hb, err := e.header.MarshalBinary()
	if err != nil {
		return err
	}
	e.plan.info.StoredBytes = len(hb)
	bb := &blockBuilder{
		buf:  make([]byte, 0, e.plan.opts.BlockPlain),
		emit: emit,
	}
	e.plan.emit(bb, e.root)
	if err := bb.finish(); err != nil {
		return err
	}
	if bb.total != e.plan.payloadLen {
		return fmt.Errorf("docenc: emitted %d payload bytes, sizing pass computed %d",
			bb.total, e.plan.payloadLen)
	}
	return nil
}

// blockBuilder cuts the emitted payload stream into plaintext blocks.
// The first error emit returns stops the stream: nothing is emitted
// after it, and finish reports it.
type blockBuilder struct {
	buf   []byte
	idx   int
	total int
	err   error
	emit  func(idx int, plain []byte) error
}

// write appends p to the stream. A piece that leaves room in the
// current block — nearly every one — is a plain append, inlined at the
// call site; cut takes the pieces that complete a block.
func (b *blockBuilder) write(p []byte) {
	if len(p) < cap(b.buf)-len(b.buf) {
		b.buf = append(b.buf, p...)
		return
	}
	b.cut(p)
}

// writeString is write for a value still in its tree node: its bytes
// are copied once, into the block.
func (b *blockBuilder) writeString(s string) {
	if len(s) < cap(b.buf)-len(b.buf) {
		b.buf = append(b.buf, s...)
		return
	}
	b.cutString(s)
}

// cut and cutString stay out of line: called from write and writeString
// they would take those past the inlining budget.
//
//go:noinline
func (b *blockBuilder) cut(p []byte) { cutBlocks(b, p) }

//go:noinline
func (b *blockBuilder) cutString(s string) { cutBlocks(b, s) }

// cutBlocks appends p, flushing every block it completes.
func cutBlocks[T []byte | string](b *blockBuilder, p T) {
	for len(p) > 0 && b.err == nil {
		n := copy(b.buf[len(b.buf):cap(b.buf)], p)
		b.buf = b.buf[:len(b.buf)+n]
		p = p[n:]
		if len(b.buf) == cap(b.buf) {
			b.flush()
		}
	}
}

func (b *blockBuilder) flush() {
	if len(b.buf) == 0 || b.err != nil {
		return
	}
	b.total += len(b.buf)
	b.err = b.emit(b.idx, b.buf)
	b.idx++
	b.buf = b.buf[:0]
}

// finish flushes the last, partial block and reports the error that
// stopped the stream, if one did.
func (b *blockBuilder) finish() error {
	b.flush()
	return b.err
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
