package docenc

import (
	"crypto/hmac"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/secure"
)

// Header is the cleartext part of a container: the minimum the terminal
// and DSP need to address blocks. It is authenticated with the document
// key, so the SOE detects any tampering with the geometry (shrinking
// PayloadLen would otherwise truncate the document undetected) and with
// the per-block generation vector (rolling one block back to an older
// generation would otherwise replay superseded content undetected).
type Header struct {
	DocID      string
	Version    uint32
	BlockPlain uint32
	PayloadLen uint64
	// GenRuns run-length encodes the per-block encryption generation: the
	// document version under which each block was last (re-)encrypted. An
	// empty slice means every block is at Version — the full-publish case,
	// which costs no header bytes. A delta re-publish re-encrypts only the
	// changed blocks at the new version; the untouched blocks keep their
	// old ciphertext and therefore their old generation, recorded here so
	// the SOE can still authenticate them. Runs must cover exactly
	// NumBlocks() blocks and no generation may exceed Version.
	GenRuns []GenRun
	MAC     [secure.HeaderMACLen]byte
}

// GenRun is one run of consecutive blocks sharing an encryption
// generation.
type GenRun struct {
	Count uint32
	Gen   uint32
}

// BlockGen reports the generation block idx was encrypted under: the
// version argument the SOE must pass to BlockContext.DecryptBlockInto.
func (h *Header) BlockGen(idx int) uint32 {
	for _, r := range h.GenRuns {
		if idx < int(r.Count) {
			return r.Gen
		}
		idx -= int(r.Count)
	}
	return h.Version
}

// Equal reports whether o is the same header field for field, MAC
// included — the two marshal to the same bytes.
func (h *Header) Equal(o *Header) bool {
	return h.DocID == o.DocID && h.Version == o.Version && h.BlockPlain == o.BlockPlain &&
		h.PayloadLen == o.PayloadLen && h.MAC == o.MAC && slices.Equal(h.GenRuns, o.GenRuns)
}

// magic identifies the container format.
var magic = [4]byte{'S', 'D', 'S', '3'}

// canonical serializes the MAC'd fields.
func (h *Header) canonical() []byte {
	// Room for the MAC too: MarshalBinary appends it.
	return h.appendCanonical(make([]byte, 0, len(magic)+len(h.DocID)+secure.HeaderMACLen+
		binary.MaxVarintLen64*(5+2*len(h.GenRuns))))
}

// appendCanonical appends the MAC'd fields to b.
func (h *Header) appendCanonical(b []byte) []byte {
	b = append(b, magic[:]...)
	b = binary.AppendUvarint(b, uint64(len(h.DocID)))
	b = append(b, h.DocID...)
	b = binary.AppendUvarint(b, uint64(h.Version))
	b = binary.AppendUvarint(b, uint64(h.BlockPlain))
	b = binary.AppendUvarint(b, h.PayloadLen)
	b = binary.AppendUvarint(b, uint64(len(h.GenRuns)))
	for _, r := range h.GenRuns {
		b = binary.AppendUvarint(b, uint64(r.Count))
		b = binary.AppendUvarint(b, uint64(r.Gen))
	}
	return b
}

// MarshalBinary serializes the header (canonical fields + MAC).
func (h *Header) MarshalBinary() ([]byte, error) {
	return append(h.canonical(), h.MAC[:]...), nil
}

// AppendBinary appends the serialized header to b: MarshalBinary without
// a buffer of its own, for callers framing the header into a message.
func (h *Header) AppendBinary(b []byte) ([]byte, error) {
	return append(h.appendCanonical(b), h.MAC[:]...), nil
}

// UnmarshalHeader decodes a header and returns the bytes consumed.
func UnmarshalHeader(data []byte) (Header, int, error) {
	var h Header
	n, err := DecodeHeader(&h, data)
	return h, n, err
}

// DecodeHeader decodes a header into h and returns the bytes consumed.
// It reuses what h holds: the generation runs are decoded into h.GenRuns'
// storage, and h.DocID is kept when the header names that document, so a
// reader that decodes header after header into one Header (a card
// session, a client that names the document it asks for) allocates
// nothing for them. On failure h holds a partial decode.
func DecodeHeader(h *Header, data []byte) (int, error) {
	if len(data) < 4 || [4]byte(data[:4]) != magic {
		return 0, fmt.Errorf("docenc: bad container magic")
	}
	pos := 4
	l, n := uvarint(data[pos:])
	if n <= 0 {
		return 0, fmt.Errorf("docenc: truncated header")
	}
	pos += n
	// Compared as uint64: a declared length of 2^63 or more must not wrap
	// negative and slip past the bound into the slice expression.
	if l > uint64(len(data)-pos) {
		return 0, fmt.Errorf("docenc: truncated doc id")
	}
	if id := data[pos : pos+int(l)]; h.DocID != string(id) {
		h.DocID = string(id)
	}
	pos += int(l)
	v, n := uvarint(data[pos:])
	if n <= 0 {
		return 0, fmt.Errorf("docenc: truncated version")
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("docenc: version %d does not fit 32 bits", v)
	}
	h.Version = uint32(v)
	pos += n
	bp, n := uvarint(data[pos:])
	if n <= 0 {
		return 0, fmt.Errorf("docenc: truncated block size")
	}
	if bp > math.MaxUint32 {
		return 0, fmt.Errorf("docenc: block size %d does not fit 32 bits", bp)
	}
	h.BlockPlain = uint32(bp)
	pos += n
	pl, n := uvarint(data[pos:])
	if n <= 0 {
		return 0, fmt.Errorf("docenc: truncated payload length")
	}
	h.PayloadLen = pl
	pos += n
	if h.BlockPlain == 0 {
		return 0, fmt.Errorf("docenc: zero block size")
	}
	nRuns, n := uvarint(data[pos:])
	if n <= 0 {
		return 0, fmt.Errorf("docenc: truncated generation runs")
	}
	pos += n
	// A run covers at least one block, so a hostile run count larger than
	// the geometry can be rejected before any allocation.
	if nRuns > uint64(h.NumBlocks()) {
		return 0, fmt.Errorf("docenc: %d generation runs exceed the %d-block geometry",
			nRuns, h.NumBlocks())
	}
	h.GenRuns = h.GenRuns[:0]
	var covered uint64
	for i := uint64(0); i < nRuns; i++ {
		count, n := uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("docenc: truncated generation run count")
		}
		pos += n
		gen, n := uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("docenc: truncated generation")
		}
		pos += n
		if count == 0 || count > uint64(h.NumBlocks()) {
			return 0, fmt.Errorf("docenc: generation run of %d blocks outside the geometry", count)
		}
		if gen > uint64(h.Version) {
			return 0, fmt.Errorf("docenc: block generation %d ahead of document version %d",
				gen, h.Version)
		}
		covered += count
		h.GenRuns = append(h.GenRuns, GenRun{Count: uint32(count), Gen: uint32(gen)})
	}
	if nRuns > 0 && covered != uint64(h.NumBlocks()) {
		return 0, fmt.Errorf("docenc: generation runs cover %d blocks, geometry has %d",
			covered, h.NumBlocks())
	}
	if pos+secure.HeaderMACLen > len(data) {
		return 0, fmt.Errorf("docenc: truncated header MAC")
	}
	copy(h.MAC[:], data[pos:pos+secure.HeaderMACLen])
	pos += secure.HeaderMACLen
	return pos, nil
}

// uvarint reads a uvarint and refuses (n == 0) one padded with zero
// groups: a header has exactly one encoding, the one it marshals to.
func uvarint(data []byte) (v uint64, n int) {
	v, n = binary.Uvarint(data)
	if n > 1 && data[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// Verify checks the header tag, in constant time, through the document
// key's context. The canonical bytes are built on the stack (HeaderMAC
// only reads them), so a card checking every header it is handed
// allocates nothing for it unless the header outgrows the buffer (a long
// document id or many generation runs).
func (h *Header) Verify(ctx *secure.BlockContext) error {
	var buf [128]byte
	want := ctx.HeaderMAC(h.appendCanonical(buf[:0]))
	if !hmac.Equal(want[:], h.MAC[:]) {
		return fmt.Errorf("%w: header tag mismatch", secure.ErrIntegrity)
	}
	return nil
}

// NumBlocks derives the block count from the geometry.
func (h *Header) NumBlocks() int {
	if h.PayloadLen == 0 {
		return 0
	}
	return int((h.PayloadLen + uint64(h.BlockPlain) - 1) / uint64(h.BlockPlain))
}

// BlockPlainLen reports the plaintext length of block idx under the
// geometry (0 when idx is out of range).
func (h *Header) BlockPlainLen(idx int) int {
	if idx < 0 || idx >= h.NumBlocks() {
		return 0
	}
	rem := h.PayloadLen - uint64(idx)*uint64(h.BlockPlain)
	if rem > uint64(h.BlockPlain) {
		return int(h.BlockPlain)
	}
	return int(rem)
}

// BlockStoredLen reports the stored (ciphertext+tag) length of block idx.
func (h *Header) BlockStoredLen(idx int) int {
	n := h.BlockPlainLen(idx)
	if n == 0 {
		return 0
	}
	return n + secure.MACLen
}

// Container is the stored form of a document: header plus one stored
// block (ciphertext||tag) per plaintext block.
type Container struct {
	Header Header
	Blocks [][]byte
}

// StoredSize is the total bytes the DSP keeps for this document.
func (c *Container) StoredSize() int {
	h, _ := c.Header.MarshalBinary()
	total := len(h)
	for _, b := range c.Blocks {
		total += len(b)
	}
	return total
}

// MarshalBinary flattens the container (header, then blocks in order;
// block boundaries are recomputable from the geometry).
func (c *Container) MarshalBinary() ([]byte, error) {
	out, err := c.Header.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if len(c.Blocks) != c.Header.NumBlocks() {
		return nil, fmt.Errorf("docenc: container has %d blocks, geometry says %d",
			len(c.Blocks), c.Header.NumBlocks())
	}
	for _, b := range c.Blocks {
		out = append(out, b...)
	}
	return out, nil
}

// UnmarshalContainer reverses MarshalBinary.
func UnmarshalContainer(data []byte) (*Container, error) {
	h, n, err := UnmarshalHeader(data)
	if err != nil {
		return nil, err
	}
	c := &Container{Header: h}
	rest := data[n:]
	remaining := int(h.PayloadLen)
	for i := 0; i < h.NumBlocks(); i++ {
		plainLen := int(h.BlockPlain)
		if remaining < plainLen {
			plainLen = remaining
		}
		stored := plainLen + secure.MACLen
		if len(rest) < stored {
			return nil, fmt.Errorf("docenc: container truncated at block %d", i)
		}
		c.Blocks = append(c.Blocks, rest[:stored:stored])
		rest = rest[stored:]
		remaining -= plainLen
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("docenc: %d trailing bytes after container", len(rest))
	}
	return c, nil
}

// DecryptPayload verifies and decrypts the full payload (bulk path used
// by tests and by trusted-terminal baselines; the SOE pipeline decrypts
// block by block instead).
func (c *Container) DecryptPayload(key secure.DocKey) ([]byte, error) {
	sctx, err := secure.NewBlockContext(key)
	if err != nil {
		return nil, err
	}
	if err := c.Header.Verify(sctx); err != nil {
		return nil, err
	}
	// Every block is decrypted where it belongs in one buffer the size the
	// (authenticated) header announces.
	h := &c.Header
	if len(c.Blocks) != h.NumBlocks() {
		return nil, fmt.Errorf("%w: container has %d blocks, header announces %d",
			secure.ErrIntegrity, len(c.Blocks), h.NumBlocks())
	}
	out := make([]byte, h.PayloadLen)
	off := 0
	for i, blk := range c.Blocks {
		n := h.BlockPlainLen(i)
		if len(blk) != n+secure.MACLen {
			return nil, fmt.Errorf("%w: block %d is %d bytes, the geometry says %d",
				secure.ErrIntegrity, i, len(blk), n+secure.MACLen)
		}
		if err := sctx.DecryptBlockInto(out[off:off+n], h.DocID, h.BlockGen(i), uint32(i), blk); err != nil {
			return nil, err
		}
		off += n
	}
	return out, nil
}
