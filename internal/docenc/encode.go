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
// Encoding is a streaming two-phase pass: a counting walk sizes two
// slabs, a sizing walk fills them with every element's content tag set
// and exact encoded size (sizes, not bytes), after which the emitter
// produces the payload front to back in one pass, encrypting and handing
// off each block as it fills. No payload or container image is ever
// materialized — the resident state is the two slabs plus one plaintext
// block, and the number of allocations does not depend on the size of
// the document (the stored blocks handed to the caller aside).
package docenc

import (
	"encoding/binary"
	"fmt"

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
	p, err := newPlan(root, opts)
	if err != nil {
		return nil, nil, err
	}
	// The payload is one block as long as itself.
	var out []byte
	bb := &blockBuilder{
		buf:  make([]byte, 0, p.payloadLen),
		emit: func(_ int, plain []byte) error { out = plain; return nil },
	}
	if err := p.emit(bb); err != nil {
		return nil, nil, err
	}
	if err := bb.flush(); err != nil {
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
	c.Header.MAC = secure.HeaderMAC(opts.Key, c.Header.canonical())
	sctx, err := secure.NewBlockContext(opts.Key)
	if err != nil {
		return nil, err
	}
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
	code tagdict.Code
	// indexed records the sizing walk's decision to attach a skip record.
	indexed bool
	// contentSize is the exact byte size of the node's encoded content
	// (children records, values, closing opcode) — the skip record's
	// jump distance, known before a single byte is emitted.
	contentSize int
}

// plan is the outcome of the sizing pass: everything the emitter needs
// to stream the payload in one pass of exactly payloadLen bytes.
type plan struct {
	opts      EncodeOptions
	dict      *tagdict.Dict
	info      *EncodeInfo
	root      *xmlstream.Node
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

// newPlan runs the sizing pass.
func newPlan(root *xmlstream.Node, opts EncodeOptions) (*plan, error) {
	if root == nil || root.IsText() {
		return nil, fmt.Errorf("docenc: document root must be an element")
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	elements := countTags(root, counts)
	dict, err := tagdict.FromCounts(counts)
	if err != nil {
		return nil, err
	}
	p := &plan{opts: opts, dict: dict, info: &EncodeInfo{Dict: dict, Nodes: elements}, root: root}
	p.setWords = skipindex.SetWords(dict.Len())
	p.nodes = make([]nodeInfo, elements)
	// One extra window at the end holds the root's parent set: every code.
	p.tagWords = make([]uint64, (elements+1)*p.setWords)
	if _, err := p.annotate(root); err != nil {
		return nil, err
	}
	p.dictImage, err = dict.MarshalBinary()
	if err != nil {
		return nil, err
	}
	p.info.DictBytes = len(p.dictImage)
	universe := p.universe()
	for i := 0; i < dict.Len(); i++ {
		universe.Add(tagdict.Code(i))
	}
	p.payloadLen = len(p.dictImage) + p.recordSize(&p.nodes[0], skipindex.RelSize(universe))
	return p, nil
}

// tags is the content tag set of element i (codes strictly below it).
func (p *plan) tags(i int) skipindex.Set {
	return skipindex.SetOver(p.tagWords[i*p.setWords:(i+1)*p.setWords], p.dict.Len())
}

// universe is the root's parent set, every code of the dictionary: the
// window after the last element's.
func (p *plan) universe() skipindex.Set { return p.tags(len(p.nodes)) }

// annotate computes tag sets and exact sizes bottom-up and returns the
// slab slot it gave n.
func (p *plan) annotate(n *xmlstream.Node) (int, error) {
	code := p.dict.Code(n.Name)
	if code == tagdict.NoCode {
		return 0, fmt.Errorf("docenc: tag %q missing from dictionary", n.Name)
	}
	slot := p.cursor
	p.cursor++
	info, tags := &p.nodes[slot], p.tags(slot)
	info.code = code
	// A child's record is measured against this node's complete tag set
	// (the recursive compression of the paper), which is only known after
	// the last child: sum what does not depend on it, count the bitmaps.
	size, bitmaps := 1, 0 // the closing opcode
	for _, c := range n.Children {
		if c.IsText() {
			size += 1 + uvarintLen(uint64(len(c.Text))) + len(c.Text)
			continue
		}
		ci, err := p.annotate(c)
		if err != nil {
			return 0, err
		}
		child := &p.nodes[ci]
		tags.Add(child.code)
		tags.UnionWith(p.tags(ci))
		size += p.recordSize(child, 0)
		if child.indexed {
			bitmaps++
		}
	}
	size += bitmaps * skipindex.RelSize(tags)
	info.contentSize = size
	info.indexed = !p.opts.DisableIndex && size >= p.opts.MinSkipBytes
	return slot, nil
}

// recordSize is the exact encoded size of a node's record (open through
// close) when its skip record's bitmap, if it has one, takes relSize
// bytes — the size of a bitmap relative to the parent's tag set.
func (p *plan) recordSize(info *nodeInfo, relSize int) int {
	n := 1 + uvarintLen(uint64(info.code)) + info.contentSize
	if info.indexed {
		n += skipindex.MetaSize(relSize, info.contentSize)
	}
	return n
}

// emit streams the payload (dictionary, then the structure stream) into
// bb, front to back, filling in the byte-level EncodeInfo counters.
func (p *plan) emit(bb *blockBuilder) error {
	if err := fillBlocks(bb, p.dictImage); err != nil {
		return err
	}
	p.cursor = 0
	var scratch []byte
	if err := p.emitNode(bb, &scratch, p.root, p.universe()); err != nil {
		return err
	}
	p.info.PayloadBytes = p.payloadLen
	return nil
}

// emitNode writes one node's record. scratch is a reused staging buffer
// for the record header (opcodes, varints, index record); values stream
// through unstaged.
func (p *plan) emitNode(bb *blockBuilder, scratch *[]byte, n *xmlstream.Node, parentTags skipindex.Set) error {
	slot := p.cursor
	p.cursor++
	info, tags := &p.nodes[slot], p.tags(slot)
	b := (*scratch)[:0]
	if info.indexed {
		b = append(b, opOpenMeta)
		b = binary.AppendUvarint(b, uint64(info.code))
		before := len(b)
		b = skipindex.AppendMeta(b, skipindex.NodeMeta{
			Tags:        tags,
			ContentSize: info.contentSize,
		}, parentTags)
		p.info.IndexBytes += len(b) - before
		p.info.FlatIndexBytes += (p.dict.Len()+7)/8 + uvarintLen(uint64(info.contentSize))
		p.info.IndexedNodes++
	} else {
		b = append(b, opOpenPlain)
		b = binary.AppendUvarint(b, uint64(info.code))
	}
	p.info.StructureBytes += 1 + uvarintLen(uint64(info.code)) + 1 // open, code, close
	*scratch = b
	if err := fillBlocks(bb, b); err != nil {
		return err
	}
	for _, c := range n.Children {
		if c.IsText() {
			b = (*scratch)[:0]
			b = append(b, opValue)
			b = binary.AppendUvarint(b, uint64(len(c.Text)))
			*scratch = b
			if err := fillBlocks(bb, b); err != nil {
				return err
			}
			if err := fillBlocks(bb, c.Text); err != nil {
				return err
			}
			p.info.TextBytes += len(b) + len(c.Text)
			continue
		}
		if err := p.emitNode(bb, scratch, c, tags); err != nil {
			return err
		}
	}
	return fillBlocks(bb, closeOp)
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
	plan   *plan
	header Header
	ran    bool
}

// NewEncoder runs the sizing pass and seals the header.
func NewEncoder(root *xmlstream.Node, opts EncodeOptions) (*Encoder, error) {
	e, err := newEncoder(root, opts)
	if err != nil {
		return nil, err
	}
	e.header.MAC = secure.HeaderMAC(e.plan.opts.Key, e.header.canonical())
	return e, nil
}

// newEncoder is NewEncoder with the header left unsealed.
func newEncoder(root *xmlstream.Node, opts EncodeOptions) (*Encoder, error) {
	if opts.DocID == "" {
		return nil, fmt.Errorf("docenc: DocID is required")
	}
	p, err := newPlan(root, opts)
	if err != nil {
		return nil, err
	}
	return &Encoder{plan: p, header: Header{
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

// Info returns the encoding statistics. The node counts are final after
// NewEncoder; the byte-level counters are final after Run (StoredBytes
// is filled by Run as blocks leave).
func (e *Encoder) Info() *EncodeInfo { return e.plan.info }

// Run streams the stored blocks, in order, to emit. It can be called
// once.
func (e *Encoder) Run(emit func(idx int, stored []byte) error) error {
	sctx, err := secure.NewBlockContext(e.plan.opts.Key)
	if err != nil {
		return err
	}
	return e.runPlain(func(idx int, plain []byte) error {
		stored, err := sctx.EncryptBlock(e.plan.opts.DocID,
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
	if err := e.plan.emit(bb); err != nil {
		return err
	}
	if err := bb.flush(); err != nil {
		return err
	}
	if bb.total != e.plan.payloadLen {
		return fmt.Errorf("docenc: emitted %d payload bytes, sizing pass computed %d",
			bb.total, e.plan.payloadLen)
	}
	return nil
}

// blockBuilder cuts the emitted payload stream into plaintext blocks.
type blockBuilder struct {
	buf   []byte
	idx   int
	total int
	emit  func(idx int, plain []byte) error
}

// fillBlocks appends p to the stream. A value still in its tree node is
// passed as the string it is: its bytes are copied once, into the block.
func fillBlocks[T []byte | string](b *blockBuilder, p T) error {
	for len(p) > 0 {
		n := copy(b.buf[len(b.buf):cap(b.buf)], p)
		b.buf = b.buf[:len(b.buf)+n]
		p = p[n:]
		if len(b.buf) == cap(b.buf) {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *blockBuilder) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	b.total += len(b.buf)
	err := b.emit(b.idx, b.buf)
	b.idx++
	b.buf = b.buf[:0]
	return err
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
