package dsp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/docenc"
	"repro/internal/secure"
)

// Wire protocol: each message is a uint32 big-endian length followed by
// the payload. Requests start with an op byte; responses start with a
// status byte (statusOK/statusErr) followed by the body or an error
// string. Each op below reads "request → reply body"; strings, blocks
// and sealed blobs travel behind uvarint lengths.
//
// opCommitDelta is a delta re-publication in one frame: the store
// commits it against the base the frame names — version and header MAC —
// and replies with the header it holds afterwards, moved = 0 when that
// is the delta's own and 1 when the base had moved (see DeltaCommitter).
// Ops 8–11 are the staged form of the same commit (see DocUpdater).
const (
	opPutDocument  = 1  // container → —
	opHeader       = 2  // docID → header
	opReadBlock    = 3  // docID, index → block
	opPutRuleSet   = 4  // docID, subject, version, sealed → —
	opRuleSet      = 5  // docID, subject → sealed
	opList         = 6  // — → count, count × id
	opReadBlocks   = 7  // docID, start, count → count, count × block
	opBeginUpdate  = 8  // base version, header → token
	opPutBlocks    = 9  // token, start, count, count × block → —
	opCommitUpdate = 10 // token → —
	opAbortUpdate  = 11 // token → —
	opStoreStats   = 12 // — → JSON ServerStats
	opCommitDelta  = 13 // delta (see appendDelta) → moved, header
)

// maxBatchBlocks bounds one opReadBlocks or opPutBlocks run: large
// enough for any skip run the encoder emits, small enough that a hostile
// count cannot make the server stage an absurd response or allocation.
// (The assembled response is additionally checked against maxFrame at
// dispatch, since block sizes vary.)
const maxBatchBlocks = 1 << 16

const (
	statusOK  = 0
	statusErr = 1
)

// maxFrame bounds a single message (64 MiB: far above any container this
// system produces, low enough to stop hostile length prefixes).
const maxFrame = 64 << 20

// writeFrame sends one length-prefixed message.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("dsp: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame receives one length-prefixed message.
func readFrame(r io.Reader) ([]byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto receives one length-prefixed message into buf when its
// capacity suffices, allocating only when the frame is larger. The
// returned slice aliases buf in the reuse case — the caller owns the
// lifetime either way.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dsp: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// wire string/varint helpers.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

type wireReader struct {
	data []byte
	pos  int
	err  error
}

// uvarint reads a uvarint in its one minimal encoding: a value padded
// with zero groups is refused, so that what decodes re-encodes to the
// same bytes.
func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || n > 1 && r.data[r.pos+n-1] == 0 {
		r.err = fmt.Errorf("dsp: truncated or padded varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// readUvarintBounded reads the count of a list of at most limit items
// that take at least minItem bytes each, and refuses a count beyond
// either bound — before the caller sizes an allocation by it.
func (r *wireReader) readUvarintBounded(minItem, limit int) int {
	n := r.uvarint()
	if left := len(r.data) - r.pos; r.err == nil && (n > uint64(left/minItem) || int(n) > limit) {
		r.err = fmt.Errorf("dsp: count %d at offset %d exceeds the limit %d or the %d bytes left", n, r.pos, limit, left)
		return 0
	}
	return int(n)
}

func (r *wireReader) string() string {
	return string(r.bytes())
}

func (r *wireReader) bytes() []byte {
	l := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Compare in uint64 space: a hostile length would overflow int and
	// slip past an int comparison into a slice panic.
	if l > uint64(len(r.data)-r.pos) {
		r.err = fmt.Errorf("dsp: truncated field at offset %d", r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+int(l)]
	r.pos += int(l)
	return b
}

func (r *wireReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.data[r.pos:]
	r.pos = len(r.data)
	return b
}

// appendDelta encodes a delta as op 13 carries it and the log records
// it: base version, base header MAC, the new header, then each run as
// start, count and count length-prefixed blocks.
func appendDelta(b []byte, d *docenc.DeltaUpdate) []byte {
	n := 3*binary.MaxVarintLen32 + 2*secure.HeaderMACLen + len(d.Header.DocID) +
		binary.MaxVarintLen64*(4+2*len(d.Header.GenRuns)+2*len(d.Runs))
	for _, r := range d.Runs {
		for _, blk := range r.Blocks {
			n += binary.MaxVarintLen32 + len(blk)
		}
	}
	b = slices.Grow(b, n)
	b = binary.AppendUvarint(b, uint64(d.BaseVersion))
	b = append(b, d.BaseMAC[:]...)
	b, _ = d.Header.AppendBinary(b)
	b = binary.AppendUvarint(b, uint64(len(d.Runs)))
	for _, r := range d.Runs {
		b = binary.AppendUvarint(b, uint64(r.Start))
		b = binary.AppendUvarint(b, uint64(len(r.Blocks)))
		for _, blk := range r.Blocks {
			b = appendBytes(b, blk)
		}
	}
	return b
}

// minDeltaBlock is the fewest bytes a block takes in a delta: its
// length, one plaintext byte and its tag.
const minDeltaBlock = 2 + secure.MACLen

// delta decodes the rest of r as appendDelta wrote it; the blocks alias
// r's data. Only appendDelta's own encoding of a delta that applyDelta
// could accept passes, byte for byte: runs non-empty, in order without
// overlap and inside the geometry, every block its stored length. Each
// count is checked against the geometry and the bytes left before
// anything is sized by it, and reserves at most maxBatchBlocks entries
// ahead of the items that follow it, so a frame costs the decoder what
// a valid delta of its size would.
func (r *wireReader) delta() (*docenc.DeltaUpdate, error) {
	base := r.uvarint()
	if r.err == nil && (base > math.MaxUint32 || len(r.data)-r.pos < secure.HeaderMACLen) {
		r.err = fmt.Errorf("dsp: base version %d out of range or its MAC cut short", base)
	}
	if r.err != nil {
		return nil, r.err
	}
	d := &docenc.DeltaUpdate{BaseVersion: uint32(base)}
	r.pos += copy(d.BaseMAC[:], r.data[r.pos:])
	h, n, err := docenc.UnmarshalHeader(r.data[r.pos:])
	if err != nil {
		return nil, err
	}
	d.Header, r.pos = h, r.pos+n
	// A run is at least its start, its count and one block.
	nb, end := h.NumBlocks(), 0
	nRuns := r.readUvarintBounded(2+minDeltaBlock, nb)
	d.Runs = make([]docenc.PatchRun, 0, min(nRuns, maxBatchBlocks))
	for r.err == nil && len(d.Runs) < nRuns {
		start := r.uvarint()
		if r.err == nil && (start < uint64(end) || start >= uint64(nb)) {
			r.err = fmt.Errorf("dsp: block run at %d out of order or outside the %d-block geometry", start, nb)
		}
		count := r.readUvarintBounded(minDeltaBlock, nb-int(start))
		if r.err == nil && count == 0 {
			r.err = fmt.Errorf("dsp: empty block run at %d", start)
		}
		blocks := make([][]byte, 0, min(count, maxBatchBlocks))
		for r.err == nil && len(blocks) < count {
			b, want := r.bytes(), h.BlockStoredLen(int(start)+len(blocks))
			if r.err == nil && len(b) != want {
				r.err = fmt.Errorf("dsp: block %d has %d bytes, geometry says %d", int(start)+len(blocks), len(b), want)
			}
			blocks = append(blocks, b)
		}
		end = int(start) + count
		d.Runs = append(d.Runs, docenc.PatchRun{Start: int(start), Blocks: blocks})
	}
	if r.err == nil && r.pos != len(r.data) {
		r.err = fmt.Errorf("dsp: %d trailing bytes after the delta", len(r.data)-r.pos)
	}
	return d, r.err
}
