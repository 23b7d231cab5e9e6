package docenc

import (
	"bytes"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/secure"
	"repro/internal/xmlstream"
)

// This file implements the block-level delta between two versions of a
// container. The crypto layer binds every stored block to (docID,
// generation, index) with a deterministic IV, so a plaintext block that
// did not change between versions has a still-valid ciphertext under its
// old generation; a delta re-publish therefore re-encrypts (and
// re-uploads) only the blocks whose plaintext moved, and records the
// surviving generations in the header's MAC'd GenRuns vector so the SOE
// keeps authenticating every block.

// blockAt returns payload's plaintext block i under the given geometry
// (nil when i is past the end).
func blockAt(payload []byte, blockPlain, i int) []byte {
	off := i * blockPlain
	if off >= len(payload) {
		return nil
	}
	end := off + blockPlain
	if end > len(payload) {
		end = len(payload)
	}
	return payload[off:end]
}

// blockEqual reports whether two blocks exist and are byte-identical
// (same length, same bytes) — the reuse condition: a shorter or longer
// final block is a different block even on a shared prefix.
func blockEqual(a, b []byte) bool {
	return a != nil && b != nil && bytes.Equal(a, b)
}

// PatchRun is one changed run with its re-encrypted stored blocks.
type PatchRun struct {
	Start  int
	Blocks [][]byte
}

// DeltaUpdate is a block-level delta from one container version to its
// successor: the new (MAC'd) header plus the stored blocks of the
// changed runs. Everything outside the runs is, by construction,
// byte-identical on the store already.
type DeltaUpdate struct {
	// Header is the successor header: Version bumped, GenRuns recording
	// which generation each block of the new geometry is encrypted under.
	Header Header
	// BaseVersion is the version this delta applies on top of, and
	// BaseMAC that version's header MAC: together they name the one
	// stored version whose unchanged blocks the new header vouches for.
	BaseVersion uint32
	BaseMAC     [secure.HeaderMACLen]byte
	// Runs are the changed runs in ascending block order.
	Runs []PatchRun
	// TotalBlocks and ChangedBlocks summarize the delta's size.
	TotalBlocks   int
	ChangedBlocks int
	// BytesChanged is the stored bytes carried by Runs.
	BytesChanged int64
}

// DiffEncode encodes root as the successor of old: the new version is
// old's plus one, unchanged blocks keep old ciphertext and generation,
// and only changed blocks are re-encrypted. The old container is
// authenticated (header MAC, block tags) before it is trusted as the
// diff base; the diff itself is DiffEncodePayload's.
//
// opts.Version is ignored (the successor version is negotiated from
// old); opts.DocID and opts.BlockPlain, when set, must match old — the
// delta is only meaningful over an identical geometry.
func DiffEncode(root *xmlstream.Node, opts EncodeOptions, old *Container) (*DeltaUpdate, *EncodeInfo, error) {
	if old == nil {
		return nil, nil, fmt.Errorf("docenc: delta needs a base container")
	}
	oldPayload, err := old.DecryptPayload(opts.Key)
	if err != nil {
		return nil, nil, fmt.Errorf("docenc: authenticating the delta base: %w", err)
	}
	d, info, _, err := DiffEncodePayload(root, opts, nil, nil, &old.Header, oldPayload, nil)
	return d, info, err
}

// DiffEncodePayload is the diff against a base the caller vouches for:
// base is the header of the version being succeeded and basePayload its
// plaintext payload, either just authenticated (DiffEncode) or produced
// by the caller's own previous encoding. The encoding pass streams: each
// plaintext block is compared against the base as it is produced and
// either dropped (reuse) or encrypted into the delta. The new version's
// plaintext payload is appended to dst[:0] and returned, so a publisher
// that keeps it has the base of its next diff without asking the store;
// dst must not overlap basePayload. sctx, when not nil, is a context for
// opts.Key that the caller keeps across diffs; the blocks and the header
// are sealed through it. plan, when not nil, is the Plan the caller
// keeps across diffs of the document: root is sized through it, which
// costs one walk when root has the shape the plan was last sized for,
// and leaves it sized for root. When basePayload is the payload the
// previous diff through the plan returned — the same buffer at the same
// length, left as it was — every record root shares with it is copied
// from it instead of being emitted again, so a one-field edit re-emits
// the few records around that field; any other base gets every record
// emitted. A wrong base cannot damage the new
// version — every block is encoded from root — only make the delta carry
// too few or too many blocks.
func DiffEncodePayload(root *xmlstream.Node, opts EncodeOptions, sctx *secure.BlockContext, plan *Plan, base *Header, basePayload, dst []byte) (*DeltaUpdate, *EncodeInfo, []byte, error) {
	if opts.DocID != "" && opts.DocID != base.DocID {
		return nil, nil, nil, fmt.Errorf("docenc: delta DocID %q does not match base %q",
			opts.DocID, base.DocID)
	}
	if opts.BlockPlain != 0 && opts.BlockPlain != int(base.BlockPlain) {
		return nil, nil, nil, fmt.Errorf("docenc: delta block size %d does not match base %d",
			opts.BlockPlain, base.BlockPlain)
	}
	if uint64(len(basePayload)) != base.PayloadLen {
		return nil, nil, nil, fmt.Errorf("docenc: delta base payload is %d bytes, its header says %d",
			len(basePayload), base.PayloadLen)
	}
	if overlap(dst[:cap(dst)], basePayload) {
		return nil, nil, nil, fmt.Errorf("docenc: delta destination overlaps its base payload")
	}
	opts.DocID = base.DocID
	opts.BlockPlain = int(base.BlockPlain)
	opts.Version = base.Version + 1

	switch {
	case sctx == nil:
		var err error
		if sctx, err = secure.NewBlockContext(opts.Key); err != nil {
			return nil, nil, nil, err
		}
	case sctx.Key() != opts.Key:
		return nil, nil, nil, fmt.Errorf("docenc: delta context is for another key")
	}
	// The header is sealed once, below, when the generation vector is
	// known: the encoder's own gen-free seal would be overwritten.
	enc, err := newEncoder(root, opts, plan, basePayload)
	if err != nil {
		return nil, nil, nil, err
	}
	d := &DeltaUpdate{
		BaseVersion: base.Version,
		BaseMAC:     base.MAC,
		TotalBlocks: enc.NumBlocks(),
	}
	payload := slices.Grow(dst[:0], enc.plan.payloadLen)
	// A block keeps its generation in the base unless it changes.
	gens := base.blockGens(enc.NumBlocks())
	err = enc.runPlain(func(idx int, plain []byte) error {
		payload = append(payload, plain...)
		if blockEqual(blockAt(basePayload, opts.BlockPlain, idx), plain) {
			return nil
		}
		stored, err := sctx.EncryptBlock(opts.DocID, opts.Version, uint32(idx), plain)
		if err != nil {
			return err
		}
		gens[idx] = opts.Version
		d.ChangedBlocks++
		d.BytesChanged += int64(len(stored))
		if n := len(d.Runs); n > 0 && d.Runs[n-1].Start+len(d.Runs[n-1].Blocks) == idx {
			d.Runs[n-1].Blocks = append(d.Runs[n-1].Blocks, stored)
		} else {
			d.Runs = append(d.Runs, PatchRun{Start: idx, Blocks: [][]byte{stored}})
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}

	enc.plan.last = payload
	h := enc.Header()
	h.GenRuns = compressGens(gens, h.Version)
	h.MAC = sctx.HeaderMAC(h.canonical())
	d.Header = h
	return d, enc.Info(), payload, nil
}

// blockGens is BlockGen of each of the first n blocks, read off the runs
// in one pass rather than each from the first run.
func (h *Header) blockGens(n int) []uint32 {
	gens := make([]uint32, 0, n)
	for _, r := range h.GenRuns {
		for k := uint32(0); k < r.Count && len(gens) < n; k++ {
			gens = append(gens, r.Gen)
		}
	}
	for len(gens) < n {
		gens = append(gens, h.Version)
	}
	return gens
}

// overlap reports whether a and b share a byte.
func overlap(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// compressGens run-length encodes the generation vector; a vector that
// is uniformly the current version collapses to nil (the header's
// compact full-publish form).
func compressGens(gens []uint32, version uint32) []GenRun {
	uniform, n := true, 0
	for i, g := range gens {
		uniform = uniform && g == version
		if i == 0 || g != gens[i-1] {
			n++
		}
	}
	if uniform {
		return nil
	}
	runs := make([]GenRun, 0, n)
	for i, g := range gens {
		if i > 0 && g == gens[i-1] {
			runs[len(runs)-1].Count++
		} else {
			runs = append(runs, GenRun{Count: 1, Gen: g})
		}
	}
	return runs
}

// Apply materializes the successor container locally: the fallback path
// for stores without the block-patch protocol, and the oracle for
// differential tests.
func (d *DeltaUpdate) Apply(old *Container) (*Container, error) {
	if old == nil || old.Header.DocID != d.Header.DocID {
		return nil, fmt.Errorf("docenc: delta applies to %q", d.Header.DocID)
	}
	if old.Header.Version != d.BaseVersion {
		return nil, fmt.Errorf("docenc: delta is against version %d, container is at %d",
			d.BaseVersion, old.Header.Version)
	}
	c := &Container{Header: d.Header}
	n := d.Header.NumBlocks()
	c.Blocks = make([][]byte, n)
	for i := 0; i < n && i < len(old.Blocks); i++ {
		c.Blocks[i] = old.Blocks[i]
	}
	for _, r := range d.Runs {
		for j, b := range r.Blocks {
			if r.Start+j >= n {
				return nil, fmt.Errorf("docenc: delta block %d outside the %d-block geometry", r.Start+j, n)
			}
			c.Blocks[r.Start+j] = b
		}
	}
	remaining := int(d.Header.PayloadLen)
	for i, b := range c.Blocks {
		plainLen := int(d.Header.BlockPlain)
		if remaining < plainLen {
			plainLen = remaining
		}
		if b == nil || len(b) != plainLen+secure.MACLen {
			return nil, fmt.Errorf("docenc: delta leaves block %d missing or mis-sized", i)
		}
		remaining -= plainLen
	}
	return c, nil
}
