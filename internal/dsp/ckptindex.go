package dsp

// The checkpoint block-index footer. A checkpoint image is the body
// (magic, documents, rules — readable by the heap loader, which never
// inspects trailing bytes) followed by an index section and a fixed
// tail. The body stores each block wire-prefixed (uvarint length before
// the payload — see the segment writer), so footer block refs point at
// the payload after its prefix:
//
//	index = uvarint nDocs
//	        per doc: [string docID][uvarint version][uvarint hdrOff]
//	                 [uvarint hdrLen][uvarint nBlocks]
//	                 per block: [uvarint off][uvarint len]
//	        uvarint rulesOff
//	tail  = [u32le index length][u32le CRC-32C of index][8-byte magic]
//
// All offsets are absolute file offsets. The body stays the source of
// truth: the footer only tells the mmap tier where each document's
// header and blocks live, so recovery can hand out views into the
// mapping without re-parsing (or heap-copying) full images. A footer
// that fails validation is never fatal — the store falls back to the
// heap loader and rewrites the image with a fresh footer.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// ckptFooterMagic terminates a footered image. Distinct from the body
// magic so a truncated body can never be mistaken for an index.
var ckptFooterMagic = []byte{'S', 'D', 'S', 'X', 'I', 'D', 'X', 2}

// ckptFooterTailLen is the fixed tail: index length, index CRC, magic.
const ckptFooterTailLen = 4 + 4 + 8

// ckptBlockRef locates one stored block inside the image.
type ckptBlockRef struct {
	off, len int64
}

// ckptDocEntry locates one document's header bytes and blocks.
type ckptDocEntry struct {
	docID   string
	version uint32
	hdrOff  int64
	hdrLen  int64
	blocks  []ckptBlockRef
}

// ckptIndex is a parsed footer. bodyEnd is where the body stops and the
// index begins — the rules section runs [rulesOff, bodyEnd).
type ckptIndex struct {
	docs     []ckptDocEntry
	rulesOff int64
	bodyEnd  int64
}

// appendCkptIndex serializes the index section plus tail for an image
// whose body is bodyLen bytes long.
func appendCkptIndex(buf []byte, docs []ckptDocEntry, rulesOff int64) []byte {
	idx := binary.AppendUvarint(nil, uint64(len(docs)))
	for i := range docs {
		d := &docs[i]
		idx = wire.AppendString(idx, d.docID)
		idx = binary.AppendUvarint(idx, uint64(d.version))
		idx = binary.AppendUvarint(idx, uint64(d.hdrOff))
		idx = binary.AppendUvarint(idx, uint64(d.hdrLen))
		idx = binary.AppendUvarint(idx, uint64(len(d.blocks)))
		for _, b := range d.blocks {
			idx = binary.AppendUvarint(idx, uint64(b.off))
			idx = binary.AppendUvarint(idx, uint64(b.len))
		}
	}
	idx = binary.AppendUvarint(idx, uint64(rulesOff))

	buf = append(buf, idx...)
	var tail [ckptFooterTailLen]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(idx)))
	binary.LittleEndian.PutUint32(tail[4:8], crc32.Checksum(idx, crcTable))
	copy(tail[8:], ckptFooterMagic)
	return append(buf, tail[:]...)
}

// parseCkptIndex validates and decodes the footer of a mapped image.
// Every offset is bounds-checked against the body (the bytes before the
// index), so a corrupt footer can never direct a view outside the
// mapping; any inconsistency returns an error and the caller heap-loads
// the body instead.
func parseCkptIndex(data []byte) (*ckptIndex, error) {
	if len(data) < ckptFooterTailLen {
		return nil, fmt.Errorf("dsp: checkpoint too short for an index footer")
	}
	tail := data[len(data)-ckptFooterTailLen:]
	if string(tail[8:]) != string(ckptFooterMagic) {
		return nil, fmt.Errorf("dsp: checkpoint has no index footer")
	}
	idxLen := int64(binary.LittleEndian.Uint32(tail[0:4]))
	wantCRC := binary.LittleEndian.Uint32(tail[4:8])
	idxStart := int64(len(data)) - ckptFooterTailLen - idxLen
	if idxLen <= 0 || idxStart < int64(len(ckptMagic)) {
		return nil, fmt.Errorf("dsp: checkpoint index length %d out of range", idxLen)
	}
	idxBytes := data[idxStart : int64(len(data))-ckptFooterTailLen]
	if crc32.Checksum(idxBytes, crcTable) != wantCRC {
		return nil, fmt.Errorf("dsp: checkpoint index CRC mismatch")
	}
	bodyEnd := idxStart
	inBody := func(off, n int64) bool {
		return off >= int64(len(ckptMagic)) && n >= 0 && off <= bodyEnd && n <= bodyEnd-off
	}

	// Entry sizes floor the counts before they size an allocation: a
	// document entry is at least five one-byte fields, a block ref two.
	r := wire.NewReader(idxBytes)
	nDocs := r.ReadUvarintBounded(5, len(idxBytes))
	if r.Err() != nil {
		return nil, r.Err()
	}
	out := &ckptIndex{docs: make([]ckptDocEntry, 0, nDocs), bodyEnd: bodyEnd}
	for i := 0; i < nDocs; i++ {
		var d ckptDocEntry
		d.docID = r.String()
		version := r.Uvarint()
		hdrOff := r.Uvarint()
		hdrLen := r.Uvarint()
		nBlocks := r.ReadUvarintBounded(2, len(idxBytes))
		if r.Err() != nil {
			return nil, fmt.Errorf("dsp: checkpoint index document %d: %w", i, r.Err())
		}
		if version > 0xFFFFFFFF {
			return nil, fmt.Errorf("dsp: checkpoint index document %d: implausible entry", i)
		}
		d.version = uint32(version)
		d.hdrOff, d.hdrLen = int64(hdrOff), int64(hdrLen)
		if !inBody(d.hdrOff, d.hdrLen) {
			return nil, fmt.Errorf("dsp: checkpoint index document %d: header outside body", i)
		}
		d.blocks = make([]ckptBlockRef, 0, nBlocks)
		for j := 0; j < nBlocks; j++ {
			off := r.Uvarint()
			blen := r.Uvarint()
			if r.Err() != nil {
				return nil, fmt.Errorf("dsp: checkpoint index document %d block %d: %w", i, j, r.Err())
			}
			ref := ckptBlockRef{off: int64(off), len: int64(blen)}
			if !inBody(ref.off, ref.len) {
				return nil, fmt.Errorf("dsp: checkpoint index document %d block %d outside body", i, j)
			}
			d.blocks = append(d.blocks, ref)
		}
		out.docs = append(out.docs, d)
	}
	rulesOff := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if !inBody(int64(rulesOff), 0) {
		return nil, fmt.Errorf("dsp: checkpoint index rules offset outside body")
	}
	out.rulesOff = int64(rulesOff)
	return out, nil
}
