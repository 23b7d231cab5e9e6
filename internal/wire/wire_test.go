package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testLimit stands in for a protocol's frame limit.
const testLimit = 1 << 10

// readConn frames a stream that is only ever read.
func readConn(r io.Reader, limit int) *FrameConn {
	return NewFrameConn(struct {
		io.Reader
		io.Writer
	}{r, io.Discard}, limit)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fc := NewFrameConn(&buf, testLimit)
	payload := []byte("hello frames")
	if err := fc.WriteFrame(payload); err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("round trip changed payload: %q", got)
	}
	// Empty payloads are legal frames.
	buf.Reset()
	if err := fc.WriteFrame(nil); err != nil {
		t.Fatal(err)
	}
	if got, err := fc.ReadFrame(nil); err != nil || len(got) != 0 {
		t.Errorf("empty frame = %q, %v", got, err)
	}
	// A frame that fits the caller's buffer lands in it.
	own := make([]byte, 0, 64)
	_ = fc.WriteFrame(payload)
	if got, _ := fc.ReadFrame(own); &got[0] != &own[:1][0] {
		t.Error("a frame that fits the buffer was read into a new one")
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	err := NewFrameConn(&buf, testLimit).WriteFrame(make([]byte, testLimit+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame written: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("a refused frame wrote %d bytes", buf.Len())
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	// A hostile length prefix must be rejected before any allocation.
	for _, n := range []uint32{testLimit + 1, math.MaxUint32} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		_, err := readConn(bytes.NewReader(hdr[:]), testLimit).ReadFrame(nil)
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("hostile length %d accepted: %v", n, err)
		}
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	_, err := readConn(bytes.NewReader([]byte{0, 0}), testLimit).ReadFrame(nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v", err)
	}
	_, err = readConn(bytes.NewReader(nil), testLimit).ReadFrame(nil)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("missing header: %v", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10)
	_, err := readConn(bytes.NewReader(append(hdr[:], 1, 2, 3)), testLimit).ReadFrame(nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v", err)
	}
}

func TestWireReaderTruncation(t *testing.T) {
	r := NewReader(nil)
	r.Uvarint()
	if r.Err() == nil {
		t.Error("uvarint on empty input succeeded")
	}
	// A field whose declared length exceeds the remaining bytes.
	r = NewReader(binary.AppendUvarint(nil, 100))
	r.Bytes()
	if r.Err() == nil {
		t.Error("overlong field served")
	}
	// A field length of 2^63 - 1, and of 2^64 - 1: compared in uint64,
	// never wrapped through int into a slice panic.
	for _, l := range []uint64{math.MaxInt64, math.MaxUint64} {
		r = NewReader(append(binary.AppendUvarint(nil, l), 1))
		if b := r.Bytes(); b != nil || r.Err() == nil {
			t.Errorf("field of %d bytes served from 1: %v", l, r.Err())
		}
	}
	r = NewReader([]byte{1, 2})
	if b := r.Take(math.MaxInt); b != nil || r.Err() == nil {
		t.Error("Take past the end served")
	}
	r = NewReader([]byte{1, 2})
	if r.Take(-1) != nil || r.Err() == nil {
		t.Error("negative Take served")
	}
	// The first failure sticks.
	r = NewReader([]byte{5})
	r.Byte()
	if r.Byte(); r.Err() == nil || r.Done() {
		t.Error("Byte past the end succeeded")
	}
	if r.Uvarint() != 0 || r.Rest() != nil {
		t.Error("reads after a failure returned data")
	}
}

func TestReaderRefusesPaddedVarint(t *testing.T) {
	// 1 encoded in two groups: decodes, but re-encodes to other bytes.
	r := NewReader([]byte{0x81, 0x00})
	if r.Uvarint(); r.Err() == nil {
		t.Error("padded varint accepted")
	}
	r = NewReader([]byte{0x81, 0x01, 0x00})
	if v := r.Uvarint(); v != 129 || r.Err() != nil || r.Byte() != 0 || !r.Done() {
		t.Errorf("minimal varint: %d, %v", v, r.Err())
	}
}

func TestReadUvarintBounded(t *testing.T) {
	count := func(n uint64, rest int) []byte {
		return append(binary.AppendUvarint(nil, n), make([]byte, rest)...)
	}
	for _, tc := range []struct {
		name           string
		data           []byte
		minItem, limit int
		ok             bool
	}{
		{"within both", count(3, 6), 2, 10, true},
		{"past the limit", count(11, 100), 1, 10, false},
		{"past the bytes left", count(4, 7), 2, 10, false},
		{"a value, not a count", count(1<<31, 0), 0, 1 << 31, true},
		{"a value past its limit", count(1<<31+1, 0), 0, 1 << 31, false},
		{"2^64 - 1", count(math.MaxUint64, 0), 0, math.MaxInt, false},
	} {
		r := NewReader(tc.data)
		n := r.ReadUvarintBounded(tc.minItem, tc.limit)
		if ok := r.Err() == nil; ok != tc.ok {
			t.Errorf("%s: %d, %v", tc.name, n, r.Err())
		}
		if r.Err() != nil && n != 0 {
			t.Errorf("%s: refused count read as %d", tc.name, n)
		}
	}
}

func TestRoundTripStatus(t *testing.T) {
	serverErr := func(msg []byte) error { return errors.New("remote: " + string(msg)) }
	for _, tc := range []struct {
		reply []byte
		body  string
		err   string
	}{
		{[]byte{StatusOK, 'h', 'i'}, "hi", ""},
		{[]byte{StatusErr, 'n', 'o'}, "", "remote: no"},
		{[]byte{42}, "", "bad response status 42"},
		{nil, "", "empty response"},
	} {
		var in bytes.Buffer
		_ = NewFrameConn(&in, testLimit).WriteFrame(tc.reply)
		body, frame, err := readConn(&in, testLimit).RoundTrip([]byte{1}, nil, serverErr)
		if string(body) != tc.body || (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
			t.Errorf("reply %v: body %q, err %v", tc.reply, body, err)
		}
		if frame == nil && len(tc.reply) > 0 {
			t.Errorf("reply %v: no frame after a complete exchange", tc.reply)
		}
	}
}

// echoServer serves frames back as their replies, after a delay that
// shrinks with each request's first byte, so later requests finish first.
// dispatched counts the requests it has started.
func echoServer(t *testing.T, workers, depth int) (srv *Server[[]byte], l net.Listener, dispatched *atomic.Int32) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dispatched = new(atomic.Int32)
	srv = NewServer("echo", testLimit, workers, depth, func(_ net.Conn, fc *FrameConn) Conn[[]byte] {
		return Conn[[]byte]{
			Dispatch: func(req []byte) []byte {
				dispatched.Add(1)
				time.Sleep(time.Duration(16-int(req[0])%16) * time.Millisecond)
				return append([]byte{StatusOK}, req...)
			},
			Reply: func(resp []byte, write bool) error {
				if !write {
					return nil
				}
				return fc.WriteFrame(resp)
			},
		}
	})
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l, dispatched
}

// TestPipelinedResponsesStayOrdered sends several frames back to back on
// one connection before reading anything: the server must answer them in
// request order even though they execute on a worker pool and the later
// ones finish first.
func TestPipelinedResponsesStayOrdered(t *testing.T) {
	_, l, _ := echoServer(t, 8, 16)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := NewFrameConn(conn, testLimit)

	const n = 10
	for i := 0; i < n; i++ {
		if err := fc.WriteFrame([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		resp, err := fc.ReadFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, []byte{StatusOK, byte(i)}) {
			t.Fatalf("response %d is %v: out of order", i, resp)
		}
	}
}

// TestCloseDrainsDispatched: Close lets every request the server had
// read finish and reach the client, and refuses new connections.
func TestCloseDrainsDispatched(t *testing.T) {
	srv, l, dispatched := echoServer(t, 4, 8)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := NewFrameConn(conn, testLimit)
	// One exchange first, so the connection is registered before Close.
	if err := fc.WriteFrame([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.ReadFrame(nil); err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if err := fc.WriteFrame([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for dispatched.Load() < n+1 {
		time.Sleep(time.Millisecond) // let the reader take them in
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := fc.ReadFrame(nil)
		if err != nil {
			t.Fatalf("reply %d lost in the drain: %v", i, err)
		}
		if !bytes.Equal(resp, []byte{StatusOK, byte(i)}) {
			t.Fatalf("reply %d is %v", i, resp)
		}
	}
	if _, err := fc.ReadFrame(nil); !errors.Is(err, io.EOF) {
		t.Errorf("after the drain the connection gave %v, want EOF", err)
	}
	if c, err := net.Dial("tcp", l.Addr().String()); err == nil {
		c.Close()
		t.Error("a closed server accepted a connection")
	}
}

// countingConn is an in-memory stream that counts the calls each way. A
// Read returns what one socket read would: whatever has arrived, up to
// the caller's buffer.
type countingConn struct {
	in, out       bytes.Buffer
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.in.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

// frame is payload as it goes on the wire.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestOneWritePerFrame: a request and a reply each leave in one Write
// that carries the header and the payload.
func TestOneWritePerFrame(t *testing.T) {
	req, reply := []byte{1, 'r', 'e', 'q'}, []byte{StatusOK, 'o', 'k'}

	var client countingConn
	client.in.Write(frame(reply))
	body, _, err := NewFrameConn(&client, testLimit).RoundTrip(req, nil, nil)
	if err != nil || string(body) != "ok" {
		t.Fatalf("round trip: %q, %v", body, err)
	}
	if client.writes != 1 || !bytes.Equal(client.out.Bytes(), frame(req)) {
		t.Errorf("the request took %d writes, sending %x", client.writes, client.out.Bytes())
	}

	var server countingConn
	if err := NewFrameConn(&server, testLimit).WriteFrame(reply); err != nil {
		t.Fatal(err)
	}
	if server.writes != 1 || !bytes.Equal(server.out.Bytes(), frame(reply)) {
		t.Errorf("the reply took %d writes, sending %x", server.writes, server.out.Bytes())
	}
}

// TestSmallFrameOneRead: a small frame that is already in the socket,
// header included, costs one Read.
func TestSmallFrameOneRead(t *testing.T) {
	var c countingConn
	c.in.Write(frame([]byte("small")))
	got, err := NewFrameConn(&c, testLimit).ReadFrame(nil)
	if err != nil || string(got) != "small" {
		t.Fatalf("read %q, %v", got, err)
	}
	if c.reads != 1 {
		t.Errorf("a small frame took %d reads, want 1", c.reads)
	}
}

// TestBackToBackFramesShareReads: frames that arrive together come out of
// one connection's reader in order, with fewer reads than frames — the
// bytes read ahead of one frame are kept for the next.
func TestBackToBackFramesShareReads(t *testing.T) {
	var c countingConn
	const n = 10
	for i := 0; i < n; i++ {
		c.in.Write(frame(bytes.Repeat([]byte{byte(i)}, i)))
	}
	fc := NewFrameConn(&c, testLimit)
	for i := 0; i < n; i++ {
		got, err := fc.ReadFrame(nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, i)) {
			t.Fatalf("frame %d is %v: out of order", i, got)
		}
	}
	if c.reads >= n {
		t.Errorf("%d frames took %d reads", n, c.reads)
	}
	if _, err := fc.ReadFrame(nil); !errors.Is(err, io.EOF) {
		t.Errorf("after the last frame: %v, want EOF", err)
	}
}

// TestLargeFrameBypassesBuffer: a body larger than the read buffer,
// arriving in pieces, lands whole in the caller's buffer, and the frame
// behind it still comes out of the bytes read ahead.
func TestLargeFrameBypassesBuffer(t *testing.T) {
	const limit = 4 * readBufSize
	big := bytes.Repeat([]byte("0123456789"), 3*readBufSize/10)
	stream := append(frame(big), frame([]byte("next"))...)
	for _, sizes := range [][]byte{{0}, {255, 3}, {}} {
		fc := readConn(&chunkReader{data: stream, sizes: sizes}, limit)
		own := make([]byte, 0, limit)
		got, err := fc.ReadFrame(own)
		if err != nil || !bytes.Equal(got, big) || &got[0] != &own[:1][0] {
			t.Fatalf("reads of %v: the large frame came back wrong (%d bytes, %v)", sizes, len(got), err)
		}
		if got, err := fc.ReadFrame(nil); err != nil || string(got) != "next" {
			t.Fatalf("reads of %v: the frame behind it is %q, %v", sizes, got, err)
		}
	}
}
