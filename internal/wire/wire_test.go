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

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, payload, testLimit); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(&buf, nil, testLimit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("round trip changed payload: %q", got)
	}
	// Empty payloads are legal frames.
	buf.Reset()
	if err := WriteFrame(&buf, nil, testLimit); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFrameInto(&buf, nil, testLimit); err != nil || len(got) != 0 {
		t.Errorf("empty frame = %q, %v", got, err)
	}
	// A frame that fits the caller's buffer lands in it.
	own := make([]byte, 0, 64)
	_ = WriteFrame(&buf, payload, testLimit)
	if got, _ := ReadFrameInto(&buf, own, testLimit); &got[0] != &own[:1][0] {
		t.Error("a frame that fits the buffer was read into a new one")
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, make([]byte, testLimit+1), testLimit)
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
		_, err := ReadFrameInto(bytes.NewReader(hdr[:]), nil, testLimit)
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("hostile length %d accepted: %v", n, err)
		}
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	_, err := ReadFrameInto(bytes.NewReader([]byte{0, 0}), nil, testLimit)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v", err)
	}
	_, err = ReadFrameInto(bytes.NewReader(nil), nil, testLimit)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("missing header: %v", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10)
	_, err := ReadFrameInto(bytes.NewReader(append(hdr[:], 1, 2, 3)), nil, testLimit)
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
		_ = WriteFrame(&in, tc.reply, testLimit)
		rw := struct {
			io.Reader
			io.Writer
		}{&in, io.Discard}
		body, frame, err := RoundTrip(rw, testLimit, []byte{1}, nil, serverErr)
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
	srv = NewServer("echo", testLimit, workers, depth, func(conn net.Conn) Conn[[]byte] {
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
				return WriteFrame(conn, resp, testLimit)
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

	const n = 10
	for i := 0; i < n; i++ {
		if err := WriteFrame(conn, []byte{byte(i)}, testLimit); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		resp, err := ReadFrameInto(conn, nil, testLimit)
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
	// One exchange first, so the connection is registered before Close.
	if err := WriteFrame(conn, []byte{0}, testLimit); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrameInto(conn, nil, testLimit); err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if err := WriteFrame(conn, []byte{byte(i)}, testLimit); err != nil {
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
		resp, err := ReadFrameInto(conn, nil, testLimit)
		if err != nil {
			t.Fatalf("reply %d lost in the drain: %v", i, err)
		}
		if !bytes.Equal(resp, []byte{StatusOK, byte(i)}) {
			t.Fatalf("reply %d is %v", i, resp)
		}
	}
	if _, err := ReadFrameInto(conn, nil, testLimit); !errors.Is(err, io.EOF) {
		t.Errorf("after the drain the connection gave %v, want EOF", err)
	}
	if c, err := net.Dial("tcp", l.Addr().String()); err == nil {
		c.Close()
		t.Error("a closed server accepted a connection")
	}
}
