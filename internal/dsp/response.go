package dsp

// The server's zero-copy response path. A response used to be one
// contiguous []byte, which cost a batched block read three copies of
// every block: the body assembly, the okResponse status-prefix rebuild,
// and nothing pooled — a 256 KiB run allocated ~2 MB per request. Here
// a response is a pooled head buffer (frame header, status byte, and
// every serialized body byte except block payloads) plus references to
// the store's block slices, written with one vectored write
// (net.Buffers → writev): block bytes cross from the store's memory to
// the socket without being copied by us at all. Stored blocks are
// immutable once published (updates install fresh slices), so handing
// them to writev is safe even while a re-publish commits.

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"sync"

	"repro/internal/wire"
)

// fileRun marks one response.blocks entry as sendfile-capable: the
// entry's bytes (a wire-exact checkpoint span, prefixes included) also
// live at off in src, so a capable connection ships them page cache →
// socket without touching the mapping. The writev path ignores fileRuns
// entirely and writes the same bytes from the span — that is the
// byte-identity fallback contract.
type fileRun struct {
	buf   int // index into response.blocks holding the span
	src   *os.File
	off   int64
	stats *sendfileStats
}

// response is one assembled reply travelling from dispatch to the
// per-connection writer.
type response struct {
	// head is [4-byte frame length][status][non-block body bytes...].
	// The frame length is filled in at write time, when the total is
	// known.
	head []byte
	// blocks are payloads referenced in place (zero copy). Block i goes
	// on the wire after head[cuts[i-1]:cuts[i]] — the head segment
	// holding its varint length prefix (empty for raw payloads).
	blocks     [][]byte
	cuts       []int
	blockBytes int

	// pins hold mmap'd checkpoint regions alive while blocks reference
	// them; release drops the pins after the vectored write (or on any
	// error/drop path — the writer releases every response exactly once).
	// With the sendfile tier the same pins keep the checkpoint *file*
	// open (the region owns the descriptor), so an in-flight file run
	// survives an epoch retirement mid-flush.
	pins []BlockPin

	// runs is the dispatch-side scratch the store appends
	// sendfile-capable runs into; fileRuns marks the blocks entries those
	// runs became.
	runs     []wireRun
	fileRuns []fileRun

	// bufs is the reused iovec scratch for the vectored write; iov is
	// the view of it that the write consumes.
	bufs, iov net.Buffers
}

// maxPooledRespHead bounds the head capacity a pooled response may
// retain — a one-off huge header or list response must not pin its
// buffer in the pool forever.
const maxPooledRespHead = 64 << 10

var respPool = sync.Pool{New: func() any { return new(response) }}

// newResponse returns a pooled response initialized as an empty OK
// reply.
func newResponse() *response {
	r := respPool.Get().(*response)
	if r.head == nil {
		r.head = make([]byte, 0, 512)
	}
	r.head = append(r.head[:0], 0, 0, 0, 0, wire.StatusOK)
	r.blocks = r.blocks[:0]
	r.cuts = r.cuts[:0]
	r.blockBytes = 0
	r.pins = r.pins[:0]
	r.runs = r.runs[:0]
	r.fileRuns = r.fileRuns[:0]
	return r
}

// release returns the response to the pool, dropping references into
// store memory (a pooled response must not pin blocks) and oversized
// buffers.
func (r *response) release() {
	for i := range r.blocks {
		r.blocks[i] = nil
	}
	for i := range r.pins {
		r.pins[i].Release()
		r.pins[i] = BlockPin{}
	}
	r.pins = r.pins[:0]
	for i := range r.runs {
		r.runs[i] = wireRun{}
	}
	r.runs = r.runs[:0]
	for i := range r.fileRuns {
		r.fileRuns[i] = fileRun{}
	}
	r.fileRuns = r.fileRuns[:0]
	for i := range r.bufs {
		r.bufs[i] = nil
	}
	r.bufs = r.bufs[:0]
	if cap(r.head) > maxPooledRespHead {
		r.head = nil
	}
	respPool.Put(r)
}

// size is the frame payload size the response has grown to.
func (r *response) size() int { return len(r.head) - 4 + r.blockBytes }

// setErr rewrites the response, whatever it holds, into an error reply.
func (r *response) setErr(err error) *response {
	r.head = append(r.head[:4], wire.StatusErr)
	r.head = append(r.head, err.Error()...)
	r.blocks = r.blocks[:0]
	r.cuts = r.cuts[:0]
	r.blockBytes = 0
	r.fileRuns = r.fileRuns[:0]
	return r
}

// appendBody copies small serialized bytes (headers, id lists) into the
// head.
func (r *response) appendBody(p []byte) { r.head = append(r.head, p...) }

// appendUvarint serializes v into the head.
func (r *response) appendUvarint(v uint64) { r.head = binary.AppendUvarint(r.head, v) }

// appendString serializes a length-prefixed string into the head.
func (r *response) appendString(s string) {
	r.appendUvarint(uint64(len(s)))
	r.head = append(r.head, s...)
}

// appendBlock appends one length-prefixed block without copying it: the
// varint goes into the head, the payload is referenced in place.
func (r *response) appendBlock(b []byte) {
	r.appendUvarint(uint64(len(b)))
	r.blocks = append(r.blocks, b)
	r.cuts = append(r.cuts, len(r.head))
	r.blockBytes += len(b)
}

// appendRaw appends payload bytes without copy or prefix (the
// single-block and rule-set replies, whose body is the payload itself).
func (r *response) appendRaw(b []byte) {
	r.blocks = append(r.blocks, b)
	r.cuts = append(r.cuts, len(r.head))
	r.blockBytes += len(b)
}

// appendFileRun appends a wire-exact checkpoint span — Count blocks,
// each [uvarint len][payload], already encoded in the image — as one
// blocks entry, and marks it sendfile-capable. Nothing goes into the
// head: the span carries its own prefixes, which is precisely why a
// whole run is one syscall.
func (r *response) appendFileRun(run wireRun) {
	r.blocks = append(r.blocks, run.Span)
	r.cuts = append(r.cuts, len(r.head))
	r.blockBytes += len(run.Span)
	r.fileRuns = append(r.fileRuns, fileRun{
		buf: len(r.blocks) - 1, src: run.File, off: run.Off, stats: run.Stats,
	})
}

// writeTo puts the response on the wire: one Write for a contiguous
// reply, one vectored write interleaving head segments and block
// payloads otherwise.
func (r *response) writeTo(w io.Writer) error {
	n := r.size()
	if n > maxFrame {
		// Callers bound their payloads at dispatch; defend anyway rather
		// than emit a frame the peer must refuse.
		return r.setErr(errFrameLimit(n)).writeTo(w)
	}
	binary.BigEndian.PutUint32(r.head[:4], uint32(n))
	if len(r.blocks) == 0 {
		_, err := w.Write(r.head)
		return err
	}
	r.bufs = r.bufs[:0]
	prev := 0
	for i, cut := range r.cuts {
		if cut > prev {
			r.bufs = append(r.bufs, r.head[prev:cut])
		}
		if len(r.blocks[i]) > 0 {
			r.bufs = append(r.bufs, r.blocks[i])
		}
		prev = cut
	}
	if prev < len(r.head) {
		r.bufs = append(r.bufs, r.head[prev:])
	}
	return r.flush(w, 0)
}

// flush writes r.bufs[from:] with one vectored write. net.Buffers.WriteTo
// consumes the slice it is given, so it gets r.iov, a view of r.bufs:
// r.bufs keeps its backing array for the next response.
func (r *response) flush(w io.Writer, from int) error {
	if from == len(r.bufs) {
		return nil
	}
	r.iov = r.bufs[from:]
	_, err := r.iov.WriteTo(w)
	r.iov = nil
	return err
}

// writeToConn is writeTo for the server's per-connection writer: file
// runs go out via sendfile when the connection still supports it —
// everything queued before a run is flushed with one vectored write,
// then the run travels page cache → socket inside the kernel. Any
// refusal latches the connection back to writev (connWriter.sendfile)
// and the run's remaining bytes resume from the mapped span at the
// exact offset sendfile stopped, so the peer sees an identical frame
// no matter which path (or mix) served it.
func (r *response) writeToConn(cw *connWriter) error {
	if len(r.fileRuns) == 0 || !cw.sendfileOK {
		return r.writeTo(cw.conn)
	}
	n := r.size()
	if n > maxFrame {
		return r.setErr(errFrameLimit(n)).writeTo(cw.conn)
	}
	binary.BigEndian.PutUint32(r.head[:4], uint32(n))
	r.bufs = r.bufs[:0]
	from := 0 // r.bufs before from are on the wire
	prev := 0
	ri := 0
	for i, cut := range r.cuts {
		if cut > prev {
			r.bufs = append(r.bufs, r.head[prev:cut])
		}
		prev = cut
		isRun := ri < len(r.fileRuns) && r.fileRuns[ri].buf == i
		if isRun && cw.sendfileOK {
			run := &r.fileRuns[ri]
			ri++
			if err := r.flush(cw.conn, from); err != nil {
				return err
			}
			from = len(r.bufs)
			span := r.blocks[i]
			sent, err := cw.sendfile(span, run.src, run.off, run.stats)
			if err != nil {
				return err
			}
			if rest := span[sent:]; len(rest) > 0 {
				// The kernel refused partway (or entirely): the mapping
				// holds the same bytes — resume right where sendfile
				// stopped.
				if _, err := cw.conn.Write(rest); err != nil {
					return err
				}
			}
			continue
		}
		if isRun {
			ri++ // latched mid-response: the span rides the writev below
		}
		if len(r.blocks[i]) > 0 {
			r.bufs = append(r.bufs, r.blocks[i])
		}
	}
	if prev < len(r.head) {
		r.bufs = append(r.bufs, r.head[prev:])
	}
	return r.flush(cw.conn, from)
}
