package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/wire"
)

// Wire protocol: internal/wire's framing, reader, client round trip and
// serve loop. This file holds only what is dspd's own — the op codes,
// the frame limit and the commit frame's delta encoding. Each op below
// reads "request → reply body"; strings, blocks and sealed blobs travel
// behind uvarint lengths.
//
// opCommitDelta is a delta re-publication in one frame: the store
// commits it against the base the frame names — version and header MAC —
// and replies with the header it holds afterwards, moved = 0 when that
// is the delta's own and 1 when the base had moved (see DeltaCommitter).
// Ops 8–11 are the staged form of the same commit (see DocUpdater). Op 3,
// a single-block read, is retired: a one-block opReadBlocks does its job,
// and dispatch refuses op 3 as an unknown op.
const (
	opPutDocument  = 1  // container → —
	opHeader       = 2  // docID → header
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

// maxFrame bounds a single message (64 MiB: far above any container this
// system produces, low enough to stop hostile length prefixes).
const maxFrame = 64 << 20

// maxBlockOffset bounds a block index on the wire: no document has
// anywhere near 2^31 blocks, so a hostile offset is refused before it
// reaches int arithmetic.
const maxBlockOffset = 1 << 31

// serverError is the FrameConn.RoundTrip hook that types a StatusErr reply.
func serverError(msg []byte) error { return ServerError(msg) }

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
			b = wire.AppendBytes(b, blk)
		}
	}
	return b
}

// minDeltaBlock is the fewest bytes a block takes in a delta: its
// length, one plaintext byte and its tag.
const minDeltaBlock = 2 + secure.MACLen

// readDelta decodes the rest of r as appendDelta wrote it; the blocks
// alias r's data. Only appendDelta's own encoding of a delta that
// applyDelta could accept passes, byte for byte: runs non-empty, in order
// without overlap and inside the geometry, every block its stored
// length. Each count is checked against the geometry and the bytes left
// before anything is sized by it, and reserves at most maxBatchBlocks
// entries ahead of the items that follow it, so a frame costs the
// decoder what a valid delta of its size would.
func readDelta(r *wire.Reader) (*docenc.DeltaUpdate, error) {
	d := &docenc.DeltaUpdate{BaseVersion: uint32(r.ReadUvarintBounded(0, math.MaxUint32))}
	copy(d.BaseMAC[:], r.Take(secure.HeaderMACLen))
	if r.Err() != nil {
		return nil, r.Err()
	}
	h, n, err := docenc.UnmarshalHeader(r.Peek())
	if err != nil {
		return nil, err
	}
	d.Header = h
	r.Take(n)
	// A run is at least its start, its count and one block.
	nb, end := h.NumBlocks(), 0
	nRuns := r.ReadUvarintBounded(2+minDeltaBlock, nb)
	d.Runs = make([]docenc.PatchRun, 0, min(nRuns, maxBatchBlocks))
	for r.Err() == nil && len(d.Runs) < nRuns {
		start := r.Uvarint()
		if r.Err() == nil && (start < uint64(end) || start >= uint64(nb)) {
			r.Fail(fmt.Errorf("dsp: block run at %d out of order or outside the %d-block geometry", start, nb))
		}
		count := r.ReadUvarintBounded(minDeltaBlock, nb-int(start))
		if r.Err() == nil && count == 0 {
			r.Fail(fmt.Errorf("dsp: empty block run at %d", start))
		}
		blocks := make([][]byte, 0, min(count, maxBatchBlocks))
		for r.Err() == nil && len(blocks) < count {
			b, want := r.Bytes(), h.BlockStoredLen(int(start)+len(blocks))
			if r.Err() == nil && len(b) != want {
				r.Fail(fmt.Errorf("dsp: block %d has %d bytes, geometry says %d", int(start)+len(blocks), len(b), want))
			}
			blocks = append(blocks, b)
		}
		end = int(start) + count
		d.Runs = append(d.Runs, docenc.PatchRun{Start: int(start), Blocks: blocks})
	}
	if r.Err() == nil && !r.Done() {
		r.Fail(fmt.Errorf("dsp: %d trailing bytes after the delta", len(r.Peek())))
	}
	return d, r.Err()
}
