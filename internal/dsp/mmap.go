package dsp

// The mmap read tier behind FileStore. Each segment's checkpoint image
// can be mapped read-only; blocks whose latest version is
// checkpoint-resident are then served as []byte views straight into the
// mapping, so a cold batched read travels disk page cache → writev with
// zero heap copies (the PR 6 vectored response path never copies block
// payloads, and with the mmap tier it no longer even starts from heap
// memory).
//
// Lifetime is epoch + refcount. A region starts with one reference — the
// owning segment's — and every pinned reader takes another while the
// shard read-lock is held (installMapping swaps regions under the shard
// write-lock, so an acquire always happens before the retire that could
// unmap). When a checkpoint publishes a new image, the old region is
// retired: the owner reference drops and the munmap runs when the last
// in-flight pin releases. A rename-replaced checkpoint file keeps its
// old inode alive while mapped, so a response mid-writev on the previous
// epoch reads stable bytes.

import (
	"errors"
	"os"
	"sync/atomic"
	"unsafe"
)

var (
	// errMmapUnsupported: this build (or platform) has no mapping
	// support; the store serves from heap.
	errMmapUnsupported = errors.New("dsp: mmap not supported")
	// errMmapEmpty: a zero-length file cannot be mapped.
	errMmapEmpty = errors.New("dsp: cannot map empty file")
)

// madviseHint names the paging-advice patterns the read tier uses; the
// platform files translate them to MADV_* values where they exist.
type madviseHint int

const (
	// adviseWillNeed: the span is about to be read — start readahead now
	// (recovery's footer-driven scans, large cold pinned runs).
	adviseWillNeed madviseHint = iota
	// adviseSequential: reads over this mapping arrive as forward runs —
	// aggressive readahead, early reclaim behind the cursor (freshly
	// installed checkpoint images).
	adviseSequential
)

// madviseRunBytes is the floor below which a pinned read skips the
// WILLNEED hint: a syscall per small run costs more than the faults it
// saves, and short runs are covered by the image-wide SEQUENTIAL advice
// installMapping already issued.
const madviseRunBytes = 64 << 10

// mmapRegion is one read-only file mapping with reference-counted
// lifetime.
type mmapRegion struct {
	// data is the full mapping. Views handed out are subslices of it and
	// must be treated as immutable.
	data []byte
	// f is the mapped file, kept open for the region's lifetime so the
	// sendfile serve path has a stable descriptor onto the same inode the
	// mapping reads — a rename-replaced checkpoint keeps both alive until
	// the last pin drops. Closed by unmap; nil on builds without mmap.
	f *os.File
	// refs counts the owner (the segment holding this region as current)
	// plus every in-flight pin. The munmap runs when it reaches zero.
	refs atomic.Int64
}

// offsetOf returns b's byte offset inside the mapping (which equals its
// file offset — the image maps from 0), or -1 when b is not a view into
// it.
func (r *mmapRegion) offsetOf(b []byte) int64 {
	if !r.contains(b) {
		return -1
	}
	base := uintptr(unsafe.Pointer(&r.data[0]))
	off := uintptr(unsafe.Pointer(&b[0])) - base
	if off+uintptr(len(b)) > uintptr(len(r.data)) {
		return -1
	}
	return int64(off)
}

// acquire takes a pin. The caller must hold the lock under which the
// region is still reachable (the shard read-lock), so the owner
// reference cannot have dropped yet.
func (r *mmapRegion) acquire() { r.refs.Add(1) }

// release drops one reference (a pin, or the owner reference when the
// region is retired) and unmaps once nobody can read the bytes anymore.
func (r *mmapRegion) release() {
	if r.refs.Add(-1) == 0 {
		_ = r.unmap()
	}
}

// contains reports whether b points into the mapping — the tiered read
// path's classifier: a block inside the region is checkpoint-resident
// and may be pinned or must be copied; anything else is heap memory
// with ordinary GC lifetime.
func (r *mmapRegion) contains(b []byte) bool {
	if r == nil || len(r.data) == 0 || len(b) == 0 {
		return false
	}
	base := uintptr(unsafe.Pointer(&r.data[0]))
	p := uintptr(unsafe.Pointer(&b[0]))
	return p >= base && p-base < uintptr(len(r.data))
}

// span returns the subslice of the mapping covering first through last
// (both views into it, in address order), or nil when either is not —
// the shape madvise hints for a pinned block run want.
func (r *mmapRegion) span(first, last []byte) []byte {
	if !r.contains(first) || !r.contains(last) {
		return nil
	}
	base := uintptr(unsafe.Pointer(&r.data[0]))
	lo := uintptr(unsafe.Pointer(&first[0])) - base
	hi := uintptr(unsafe.Pointer(&last[0])) - base + uintptr(len(last))
	if hi <= lo || hi > uintptr(len(r.data)) {
		return nil
	}
	return r.data[lo:hi]
}

// BlockPin pins the mapped memory behind zero-copy block views handed
// out by ReadBlocksPinned. The views stay valid until Release; a pin is
// cheap (one atomic) and a zero BlockPin releases as a no-op.
type BlockPin struct{ r *mmapRegion }

// Release drops the pin. After Release the pinned views must not be
// read — the mapping may be gone.
func (p BlockPin) Release() {
	if p.r != nil {
		p.r.release()
	}
}

// PinnedBlockReader is implemented by stores that can serve a block
// range as zero-copy views into memory they own only temporarily (an
// mmap'd checkpoint image). The returned blocks stay readable until
// every pin appended to *pins is released; mapped reports whether any
// pin was taken (callers that outlive the pins must copy instead).
// Blocks not backed by such memory are returned as ordinary store-owned
// slices, exactly like ReadBlocks.
type PinnedBlockReader interface {
	ReadBlocksPinned(docID string, start, count int, pins *[]BlockPin) (blocks [][]byte, mapped bool, err error)
}

// runReader is the one pinned range read inside the package, implemented
// by FileStore and Cache. Checkpoint-resident blocks come back as views
// kept valid by pins appended to *pins. With runs non-nil, contiguous
// checkpoint-file stretches of the range are also appended to *runs
// (Start relative to the returned slice) for the sendfile tier; the
// spans, like the blocks, stay valid until the pins release.
type runReader interface {
	readRun(docID string, start, count int, pins *[]BlockPin, runs *[]wireRun) ([][]byte, error)
}

// readPinned is ReadBlocksPinned over a runReader: mapped reports
// whether the read took a pin.
func readPinned(r runReader, docID string, start, count int, pins *[]BlockPin) ([][]byte, bool, error) {
	pre := len(*pins)
	out, err := r.readRun(docID, start, count, pins, nil)
	if err != nil {
		return nil, false, err
	}
	return out, len(*pins) > pre, nil
}
