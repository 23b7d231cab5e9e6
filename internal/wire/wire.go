// Package wire is the one length-prefixed protocol machinery of the
// repository: dspd and gatewayd speak it over TCP, and the rule-set
// codec, the APDU applet and dspd's log and checkpoint decoders read
// their fields with its Reader.
//
// A frame is a uint32 big-endian length followed by the payload.
// Requests start with an op byte that each protocol defines; replies
// start with a status byte (StatusOK, StatusErr) followed by the body or
// an error message. Strings and byte fields travel behind uvarint
// lengths. Each protocol passes its own frame limit.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Reply status bytes.
const (
	StatusOK  = 0
	StatusErr = 1
)

// WriteFrame sends payload as one frame; a payload past limit is refused
// before anything is written.
func WriteFrame(w io.Writer, payload []byte, limit int) error {
	if len(payload) > limit {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(payload), limit)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrameInto receives one frame into buf when its capacity suffices,
// allocating only for a larger frame; the result aliases buf in the
// reuse case. A length past limit is refused before any allocation.
func ReadFrameInto(r io.Reader, buf []byte, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if uint64(n) > uint64(limit) {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, limit)
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

// RoundTrip is one client exchange: it writes req as one frame, reads the
// reply into buf's capacity and decodes the status byte. It returns the
// body after the status byte and the frame buffer, which the caller may
// keep for its next round trip; frame is nil when no reply arrived (an
// empty reply may leave it nil too). A StatusErr reply comes back as
// serverErr of its message.
func RoundTrip(rw io.ReadWriter, limit int, req, buf []byte, serverErr func(msg []byte) error) (body, frame []byte, err error) {
	if err := WriteFrame(rw, req, limit); err != nil {
		return nil, nil, err
	}
	if frame, err = ReadFrameInto(rw, buf[:0:cap(buf)], limit); err != nil {
		return nil, nil, err
	}
	switch {
	case len(frame) == 0:
		return nil, frame, errors.New("wire: empty response")
	case frame[0] == StatusOK:
		return frame[1:], frame, nil
	case frame[0] == StatusErr:
		return nil, frame, serverErr(frame[1:])
	}
	return nil, frame, fmt.Errorf("wire: bad response status %d", frame[0])
}

// AppendString appends s behind its uvarint length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p behind its uvarint length.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// bufPool recycles request and reply build buffers across frames.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledBuf bounds the capacity a returned buffer may keep in the pool:
// a one-off huge frame is left to the collector.
const maxPooledBuf = 1 << 20

// GetBuf returns an empty build buffer from the pool.
func GetBuf() []byte { return (*bufPool.Get().(*[]byte))[:0] }

// PutBuf returns a build buffer to the pool; b must not be used after.
func PutBuf(b []byte) {
	if cap(b) <= maxPooledBuf {
		bufPool.Put(&b)
	}
}
