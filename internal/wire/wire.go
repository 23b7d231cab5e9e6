// Package wire is the one length-prefixed protocol machinery of the
// repository: dspd and gatewayd speak it over TCP, and the rule-set
// codec and dspd's log and checkpoint decoders read their fields with
// its Reader.
//
// A frame is a uint32 big-endian length followed by the payload.
// Requests start with an op byte that each protocol defines; replies
// start with a status byte (StatusOK, StatusErr) followed by the body or
// an error message. Strings and byte fields travel behind uvarint
// lengths. Each protocol passes its own frame limit.
//
// Each end of a connection is one FrameConn. A frame leaves in one write,
// header and payload together, and the connection's read buffer brings a
// small frame in with one read; neither costs an allocation once the
// connection is warm.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Reply status bytes.
const (
	StatusOK  = 0
	StatusErr = 1
)

// readBufSize is a connection end's read buffer: a frame this small,
// header included, arrives in one read, and frames that arrive back to
// back share reads. A larger body is read straight into its destination
// after the buffered prefix.
const readBufSize = 16 << 10

// maxCopiedFrame bounds the frame a connection end copies into its write
// buffer so that header and payload leave in one write. A larger payload
// is not copied, so the buffer a connection keeps stays this small: it
// goes out as one vectored write (one writev on a socket) of the header
// and the payload in place.
const maxCopiedFrame = 64 << 10

// FrameConn is one end of a framed connection: both halves of the
// framing over one stream. Its read buffer belongs to the connection, not
// to a call, so bytes read ahead of one frame are the start of the next.
// One goroutine may read while another writes; each half is otherwise
// used by one goroutine at a time.
type FrameConn struct {
	rw    io.ReadWriter
	r     *bufio.Reader
	limit int
	// wbuf is the write half's frame scratch: header, then the payload.
	wbuf []byte
}

// NewFrameConn frames rw, refusing frames past limit either way.
func NewFrameConn(rw io.ReadWriter, limit int) *FrameConn {
	return &FrameConn{rw: rw, r: bufio.NewReaderSize(rw, readBufSize), limit: limit}
}

// WriteFrame sends payload as one frame in one write; a payload past the
// limit is refused before anything is written.
func (c *FrameConn) WriteFrame(payload []byte) error {
	if len(payload) > c.limit {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(payload), c.limit)
	}
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf[:0], uint32(len(payload)))
	if len(payload) > maxCopiedFrame {
		bufs := net.Buffers{c.wbuf, payload}
		_, err := bufs.WriteTo(c.rw)
		return err
	}
	c.wbuf = append(c.wbuf, payload...)
	_, err := c.rw.Write(c.wbuf)
	return err
}

// ReadFrame receives one frame into buf when its capacity suffices,
// allocating only for a larger frame; the result aliases buf in the
// reuse case. A length past the limit is refused before any allocation.
func (c *FrameConn) ReadFrame(buf []byte) ([]byte, error) {
	hdr, err := c.r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = c.r.Discard(4) // cannot fail: Peek just buffered these 4 bytes
	if uint64(n) > uint64(c.limit) {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, c.limit)
	}
	if uint32(cap(buf)) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(c.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended behind a header
		}
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
func (c *FrameConn) RoundTrip(req, buf []byte, serverErr func(msg []byte) error) (body, frame []byte, err error) {
	if err := c.WriteFrame(req); err != nil {
		return nil, nil, err
	}
	if frame, err = c.ReadFrame(buf[:0:cap(buf)]); err != nil {
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

// BufPool recycles byte buffers across frames. It holds *[]byte; boxes
// holds the emptied pointers Get takes out of it, so that Put re-boxes a
// buffer without allocating. The zero value is ready for use. A buffer
// comes back at the capacity it grew to, so a pool whose buffers serve one
// kind of frame stops regrowing them once warm: keep frames of very
// different sizes in different pools.
type BufPool struct {
	bufs, boxes sync.Pool
}

// maxPooledBuf bounds the capacity a returned buffer may keep in a pool:
// a one-off huge frame is left to the collector.
const maxPooledBuf = 1 << 20

// Get returns an empty buffer from the pool.
func (p *BufPool) Get() []byte {
	bp, _ := p.bufs.Get().(*[]byte)
	if bp == nil {
		return make([]byte, 0, 4096)
	}
	b := *bp
	*bp = nil
	p.boxes.Put(bp)
	return b[:0]
}

// Put returns a buffer to the pool; b must not be used after.
func (p *BufPool) Put(b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	bp, _ := p.boxes.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = b
	p.bufs.Put(bp)
}

// builds holds the request and reply build buffers of GetBuf and PutBuf.
var builds BufPool

// GetBuf returns an empty build buffer from the shared pool.
func GetBuf() []byte { return builds.Get() }

// PutBuf returns a build buffer to the shared pool; b must not be used
// after.
func PutBuf(b []byte) { builds.Put(b) }
