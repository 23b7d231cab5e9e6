package soe

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/secure"
)

// PreparedRun is a contiguous run of blocks the terminal has fetched and
// decrypted ahead of the card's demand. Preparation does the pure
// cryptographic work — MAC verification and CTR keystream XOR — off the
// session's critical path; everything the simulator meters (link bytes,
// APDUs, crypto/MAC byte counts) is charged only when a block is
// actually fed (FeedPrepared), so a speculatively prepared block the
// evaluator skips past costs the simulated card nothing, exactly as in
// the serial path.
//
// A run belongs to the session that prepared it: Release hands it back,
// and the session's next PrepareRun fills it again, slices, plaintext
// buffer and all.
type PreparedRun struct {
	sess       *Session
	start      int
	storedLens []int                  // stored sizes, for feed-time link accounting
	plains     [][]byte               // decrypted payloads (views into buf or the frame)
	errs       []error                // deferred per-block decrypt failures
	buf        []byte                 // contiguous plaintext (unused when in place)
	release    interface{ Release() } // the frame the ciphertext was borrowed from
	fed        int                    // blocks consumed so far (monotonic offset)
	live       bool                   // prepared and not yet released
	helper     func()                 // decryptHelper, bound once: go helper() allocates nothing

	// What the decrypt workers share while PrepareRun runs.
	stored  [][]byte
	offsets []int // where each block's plaintext starts in buf
	owned   bool
	next    atomic.Int32 // next block to claim
	wg      sync.WaitGroup
}

// Start is the absolute index of the run's first block.
func (r *PreparedRun) Start() int { return r.start }

// Len is the number of blocks in the run.
func (r *PreparedRun) Len() int { return len(r.plains) }

// maxRunBuffer bounds the plaintext buffer a released run keeps.
const maxRunBuffer = 1 << 20

// Release releases the ciphertext frame, if any, and hands the run back
// to its session. The run must not be touched afterwards; releasing nil,
// or a run twice before its session reuses it, does nothing.
func (r *PreparedRun) Release() {
	if r == nil || !r.live {
		return
	}
	r.live = false
	if r.release != nil {
		r.release.Release()
		r.release = nil
	}
	clear(r.plains) // views of the frame just given back
	r.plains = r.plains[:0]
	if cap(r.buf) > maxRunBuffer {
		r.buf = nil
	}
	select {
	case r.sess.runs <- r:
	default: // more runs than the pipeline ever holds: let this one go
	}
}

// prepWorkers is the fan-out of the run decryptor: MAC verify and CTR
// XOR are independent across blocks, so a short run saturates a few
// cores without the scheduling cost of one goroutine per block.
func prepWorkers(blocks int) int {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	if w > blocks {
		w = blocks
	}
	return w
}

// PrepareRun decrypts a fetched run of stored blocks (absolute indices
// start, start+1, ...) through the card's shared cipher context, fanning
// the per-block MAC+XOR work across a small worker pool. It may run on
// the terminal's prefetch goroutine, concurrently with the session
// consuming earlier blocks: it touches only state that is immutable
// after LoadHeader and charges no meters.
//
// When owned is true the caller guarantees the stored slices are its own
// (a dsp.BlockFrame it will release via the run) and decryption happens
// in place — zero copies; a block that fails its tag is left zeroed
// where it lay. Otherwise the plaintexts are decrypted into
// the run's own contiguous buffer and the stored slices are left untouched.
// release, if non-nil, is released by PreparedRun.Release.
//
// Per-block failures (tampered or truncated blocks) are recorded, not
// returned: the session only aborts if the card actually asks for the
// bad block, matching the serial path where a block after a skip target
// is never decrypted at all.
func (s *Session) PrepareRun(start int, stored [][]byte, owned bool, release interface{ Release() }) (*PreparedRun, error) {
	if s.ctx == nil {
		return nil, fmt.Errorf("soe: PrepareRun before LoadHeader")
	}
	var r *PreparedRun
	select {
	case r = <-s.runs:
	default:
		r = &PreparedRun{sess: s}
		r.helper = r.decryptHelper
	}
	n := len(stored)
	r.start, r.fed, r.live = start, 0, true
	r.release = release
	// Lengths only: every element is overwritten just below.
	r.storedLens = slices.Grow(r.storedLens[:0], n)[:n]
	r.plains = slices.Grow(r.plains[:0], n)[:n]
	r.errs = slices.Grow(r.errs[:0], n)[:n]
	r.offsets = slices.Grow(r.offsets[:0], n)[:n]
	total := 0
	for i, b := range stored {
		r.storedLens[i] = len(b)
		r.plains[i], r.errs[i] = nil, nil
		r.offsets[i] = total
		if len(b) >= secure.MACLen {
			total += len(b) - secure.MACLen
		}
	}
	if !owned {
		r.buf = slices.Grow(r.buf[:0], total)[:total]
	}

	// The caller is one of the workers; the others exit with it.
	r.stored, r.owned = stored, owned
	r.next.Store(0)
	helpers := prepWorkers(n) - 1
	if helpers > 0 {
		r.wg.Add(helpers)
		for k := 0; k < helpers; k++ {
			go r.helper()
		}
	}
	r.decrypt()
	r.wg.Wait()
	r.stored = nil
	return r, nil
}

func (r *PreparedRun) decryptHelper() {
	defer r.wg.Done()
	r.decrypt()
}

// decrypt claims blocks of the run until none is left, verifying and
// decrypting each. Workers write disjoint elements of plains and errs.
func (r *PreparedRun) decrypt() {
	s := r.sess
	docID, hdr := s.header.DocID, &s.header
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.stored) {
			return
		}
		b := r.stored[i]
		idx := r.start + i
		if len(b) < secure.MACLen {
			r.errs[i] = fmt.Errorf("%w: block %d shorter than its tag", secure.ErrIntegrity, idx)
			continue
		}
		dst := b[:len(b)-secure.MACLen]
		if !r.owned {
			dst = r.buf[r.offsets[i] : r.offsets[i]+len(dst)]
		}
		if err := s.ctx.DecryptBlockInto(dst, docID, hdr.BlockGen(idx), uint32(idx), b); err != nil {
			r.errs[i] = err
			continue
		}
		r.plains[i] = dst
	}
}

// FeedPrepared pushes one block of a prepared run into the card. It is
// the prepared twin of Feed: the same meter charges in the same order,
// the same geometry validation, the same result (the link bytes the
// output was charged), the same abort semantics — only the
// cryptographic work already happened in PrepareRun. blockIdx must be
// the block NeedBlock asked for and must lie within the run at or past
// the last block fed from it (the gap being blocks the evaluator
// skipped, which are charged to no meter — they were speculation).
func (s *Session) FeedPrepared(r *PreparedRun, blockIdx int) (int, error) {
	if err := s.accepts(blockIdx); err != nil {
		return 0, err
	}
	off := blockIdx - r.start
	if off < 0 || off >= len(r.plains) {
		return 0, fmt.Errorf("soe: block %d outside prepared run [%d,%d)", blockIdx, r.start, r.start+len(r.plains))
	}
	if off < r.fed {
		return 0, fmt.Errorf("soe: block %d of the run already fed", blockIdx)
	}
	r.fed = off + 1

	// Identical accounting to Feed: the stored block crosses the link...
	s.card.Meter.BytesToCard += int64(r.storedLens[off])
	s.card.Meter.APDUs += int64(apduCount(r.storedLens[off], s.card.Profile.MaxAPDUData))

	// ...then the card decrypts it (the simulated card still pays for the
	// crypto; only the host-side work was hoisted off the critical path).
	if err := r.errs[off]; err != nil {
		return 0, s.abort(err)
	}
	return s.feedPlain(blockIdx, r.plains[off])
}
