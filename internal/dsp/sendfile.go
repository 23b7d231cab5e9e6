package dsp

// The sendfile cold serve tier. The mmap tier (PR 7) got a cold batched
// read down to zero heap copies — but the kernel still reads page-cache
// bytes back through the user mapping into socket buffers, paying page
// faults and TLB pressure on every cold run. Checkpoint image v3 stores
// every block behind its uvarint length prefix — byte for byte the
// opReadBlocks wire encoding — so a contiguous run of
// checkpoint-resident blocks, interleaved prefixes included, is one
// contiguous file span. The store resolves such a run to (file, offset,
// span) and the per-connection writer ships it with a single
// sendfile(2): page cache → socket entirely inside the kernel.
//
// The fallback contract is byte identity. A wireRun's span is also
// appended to the response as an ordinary in-place buffer, so the plain
// writev path — nosendfile builds, non-linux platforms, conns that are
// not syscall.Conn, or a connection whose sendfile latched off after
// ENOSYS/EINVAL — emits exactly the same frame without any special
// casing. A short sendfile resumes from the mapping at the same byte
// offset for the same reason: span[sent:] is the rest of the wire
// bytes.

import (
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
)

// sendfileMinRunBytes is the floor below which a checkpoint run is
// served through writev anyway: a sendfile costs a syscall plus a
// writev flush of the bytes queued before it, which only pays for
// itself on runs big enough to dominate the frame.
const sendfileMinRunBytes = 16 << 10

// sendfileStats is the sink a connection writer reports sendfile
// outcomes into — owned by the FileStore whose checkpoint files the
// runs point at, carried on each wireRun so the writer never needs to
// know which store built the response.
type sendfileStats struct {
	// reads counts sendfile syscall sequences that shipped a full run;
	// bytes counts the bytes they moved (short-write resumes included).
	reads, bytes atomic.Int64
	// fallbacks counts runs (or run remainders) the writer had to push
	// through writev after the kernel refused sendfile at runtime.
	fallbacks atomic.Int64
}

// wireRun is one contiguous checkpoint-file span covering blocks
// [Start, Start+Count) of a batched read, wire-encoded in place: the
// span bytes are [uvarint len][payload] per block, exactly what the
// response frame needs at that position.
type wireRun struct {
	Start, Count int
	// Span is the mapped view of the run — the writev fallback bytes.
	Span []byte
	// File and Off locate the same bytes on disk for sendfile. The file
	// is kept open by the region the response's pin holds.
	File *os.File
	Off  int64
	// Stats receives the writer's syscall outcomes.
	Stats *sendfileStats
}

// sendfileOn lets batched reads resolve checkpoint runs to (file,
// offset) spans the connection writer ships with sendfile. The spans
// are files behind mapped images, so the tier needs the mmap tier too.
const sendfileOn = mmapOn && sendfileSupported

// testSendfileOverride, when non-nil, replaces the sendfile syscall on
// the write path: it must behave like one — deliver some prefix of span
// to w, return how many bytes it delivered, whether the connection
// should latch back to writev, and any fatal connection error. Tests
// use it to inject short counts, mid-response ENOSYS and peer deaths.
var testSendfileOverride func(w io.Writer, span []byte) (int64, bool, error)

// connWriter wraps one server connection for the response writer: it
// remembers whether sendfile is still worth attempting here. A conn
// that is not a syscall.Conn (net.Pipe in tests, TLS some day) never
// attempts; a runtime refusal (ENOSYS, EINVAL, EOPNOTSUPP) latches the
// connection back to writev for good — per connection, so one odd
// socket never degrades its neighbors.
type connWriter struct {
	conn net.Conn
	rc   syscall.RawConn
	// sendfileOK starts true on capable builds and latches false on the
	// first runtime refusal.
	sendfileOK bool
	sf         sendfileState
}

func newConnWriter(conn net.Conn) *connWriter {
	cw := &connWriter{conn: conn}
	if !sendfileSupported && testSendfileOverride == nil {
		return cw
	}
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			cw.rc = rc
			cw.sendfileOK = true
		}
	}
	return cw
}

// sendfile ships one run, resuming short writes, and reports how many
// span bytes reached the socket. A kernel refusal latches the fallback:
// the caller writes span[sent:] through the ordinary path and this
// connection stops attempting sendfile. A non-nil error is a dead
// connection.
func (cw *connWriter) sendfile(span []byte, src *os.File, off int64, stats *sendfileStats) (sent int64, err error) {
	var unsupported bool
	if testSendfileOverride != nil {
		sent, unsupported, err = testSendfileOverride(cw.conn, span)
	} else {
		sent, unsupported, err = cw.sf.send(cw.rc, src, off, int64(len(span)))
	}
	if stats != nil {
		if sent > 0 {
			stats.bytes.Add(sent)
		}
		if unsupported {
			stats.fallbacks.Add(1)
		} else if err == nil {
			stats.reads.Add(1)
		}
	}
	if unsupported {
		cw.sendfileOK = false
	}
	return sent, err
}
