package soe

import (
	"fmt"
	"io"

	"repro/internal/docenc"
	"repro/internal/mem"
)

// blockSource adapts block-by-block feeding to the decoder's pull
// interface. It keeps a small plaintext window (the current block plus
// the carry of an item that straddles a block boundary) and turns Skip
// into a jump of the wanted offset — the mechanism that converts
// evaluator skip decisions into blocks never requested from the DSP.
//
// The window is logical: consuming an item only advances its start. The
// bytes are moved once per fed block, when the unconsumed carry goes to
// the front of the buffer to make room — so what Take hands out stays
// put until the next feed.
//
// RAM accounting: one block's worth of window rides in the card's
// hardware I/O buffer (the APDU buffer exists independently of applet
// RAM on the target hardware), so only the carry beyond one block is
// charged to the applet's gauge — from the logical window, whatever the
// host's buffer still holds in front of it.
type blockSource struct {
	header *docenc.Header
	gauge  mem.Gauge

	buf     []byte // buffered plaintext; the window is its tail from start on
	base    int    // absolute payload offset of buf[0]
	start   int    // absolute offset of the window's first byte
	pos     int    // absolute offset of the next byte to deliver
	markPos int    // rollback point (start of the in-flight item)
	charged int    // carry bytes currently charged
}

// reset empties the source for another payload, keeping its buffer.
func (s *blockSource) reset(h *docenc.Header, g mem.Gauge) {
	*s = blockSource{header: h, gauge: g, buf: s.buf[:0]}
}

// wantOffset is the absolute payload offset of the first byte the source
// cannot serve yet.
func (s *blockSource) wantOffset() int {
	if end := s.windowEnd(); s.pos < end {
		return end // carry present: next bytes needed are past the window
	}
	return s.pos
}

// windowEnd is the absolute offset just past the buffered window.
func (s *blockSource) windowEnd() int { return s.base + len(s.buf) }

// window exposes the unconsumed buffered bytes (dictionary parsing).
func (s *blockSource) window() []byte { return s.buf[s.pos-s.base:] }

// feed appends a decrypted block's usable bytes to the window.
func (s *blockSource) feed(blockIdx int, plain []byte) error {
	blockStart := blockIdx * int(s.header.BlockPlain)
	usableFrom := 0
	switch {
	case s.pos > s.windowEnd():
		return fmt.Errorf("soe: source position %d beyond window end %d", s.pos, s.windowEnd())
	case s.start == s.windowEnd():
		// Empty window: the block must contain pos.
		if s.pos < blockStart || s.pos >= blockStart+len(plain) {
			return fmt.Errorf("soe: fed block %d does not contain offset %d", blockIdx, s.pos)
		}
		s.buf = s.buf[:0]
		s.base, s.start = s.pos, s.pos
		usableFrom = s.pos - blockStart
	default:
		// Carry present: the block must extend the window contiguously.
		if blockStart != s.windowEnd() {
			return fmt.Errorf("soe: fed block %d not contiguous with window end %d", blockIdx, s.windowEnd())
		}
		s.buf = s.buf[:copy(s.buf, s.buf[s.start-s.base:])]
		s.base = s.start
	}
	s.buf = append(s.buf, plain[usableFrom:]...)
	return s.updateCharge()
}

// updateCharge reconciles the gauge with the current carry size (window
// bytes beyond one hardware block buffer).
func (s *blockSource) updateCharge() error {
	want := s.windowEnd() - s.start - int(s.header.BlockPlain)
	if want < 0 {
		want = 0
	}
	switch {
	case want > s.charged:
		if err := s.gauge.Alloc(want - s.charged); err != nil {
			return fmt.Errorf("soe: input window carry: %w", err)
		}
	case want < s.charged:
		s.gauge.Free(s.charged - want)
	}
	s.charged = want
	return nil
}

// mark remembers the current position for rollback.
func (s *blockSource) mark() { s.markPos = s.pos }

// rollback returns to the marked position (item restart after feeding).
func (s *blockSource) rollback() { s.pos = s.markPos }

// consume advances past n bytes that were inspected via window() rather
// than Take (dictionary phase).
func (s *blockSource) consume(n int) error {
	if s.pos+n > s.windowEnd() {
		return fmt.Errorf("soe: consume(%d) beyond window", n)
	}
	s.pos += n
	return s.compact()
}

// compact drops consumed bytes from the window and releases their memory
// charge. Called between items, never mid-item (rollback must stay
// possible while an item is in flight).
func (s *blockSource) compact() error {
	if s.pos <= s.start {
		return nil
	}
	s.start = s.pos
	return s.updateCharge()
}

// ReadByte implements docenc.Source.
func (s *blockSource) ReadByte() (byte, error) {
	if uint64(s.pos) >= s.header.PayloadLen {
		return 0, io.EOF
	}
	if s.pos >= s.windowEnd() || s.pos < s.start {
		return 0, docenc.ErrNeedMore
	}
	b := s.buf[s.pos-s.base]
	s.pos++
	return b, nil
}

// Take implements docenc.Source.
func (s *blockSource) Take(n int) ([]byte, error) {
	if n < 0 || uint64(s.pos)+uint64(n) > s.header.PayloadLen {
		return nil, fmt.Errorf("%w: read past payload end", io.ErrUnexpectedEOF)
	}
	if s.pos < s.start || s.pos+n > s.windowEnd() {
		return nil, docenc.ErrNeedMore
	}
	i := s.pos - s.base
	s.pos += n
	return s.buf[i : i+n : i+n], nil
}

// Skip implements docenc.Source: the skip may jump far beyond the window,
// in which case the window is dropped and the next wanted block jumps
// with it.
func (s *blockSource) Skip(n int) error {
	if n < 0 {
		return fmt.Errorf("soe: negative skip %d", n)
	}
	if uint64(s.pos)+uint64(n) > s.header.PayloadLen {
		return fmt.Errorf("soe: skip of %d bytes overruns payload (offset %d, length %d)",
			n, s.pos, s.header.PayloadLen)
	}
	s.pos += n
	if s.pos >= s.windowEnd() {
		s.buf = s.buf[:0]
		s.base, s.start = s.pos, s.pos
		if err := s.updateCharge(); err != nil {
			return err
		}
	}
	return nil
}

// Offset implements docenc.Source.
func (s *blockSource) Offset() int { return s.pos }

// Avail implements docenc.Source: bytes servable without another block.
func (s *blockSource) Avail() int {
	a := s.windowEnd() - s.pos
	if a < 0 {
		return 0
	}
	if end := int(s.header.PayloadLen); s.pos+a > end {
		a = end - s.pos
	}
	return a
}

// Remaining implements docenc.Source.
func (s *blockSource) Remaining() int { return int(s.header.PayloadLen) - s.pos }
