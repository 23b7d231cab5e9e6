package dsp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/docenc"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("round trip changed payload: %q", got)
	}
	// Empty payloads are legal frames.
	buf.Reset()
	if err := writeFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := readFrame(&buf); err != nil || len(got) != 0 {
		t.Errorf("empty frame = %q, %v", got, err)
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	err := writeFrame(io.Discard, make([]byte, maxFrame+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame written: %v", err)
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	// A hostile length prefix must be rejected before any allocation.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("hostile length accepted: %v", err)
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	_, err := readFrame(bytes.NewReader([]byte{0, 0}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v", err)
	}
	_, err = readFrame(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("missing header: %v", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10)
	_, err := readFrame(bytes.NewReader(append(hdr[:], 1, 2, 3)))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v", err)
	}
}

func TestWireReaderTruncation(t *testing.T) {
	r := &wireReader{data: nil}
	r.uvarint()
	if r.err == nil {
		t.Error("uvarint on empty input succeeded")
	}
	// A field whose declared length exceeds the remaining bytes.
	r = &wireReader{data: binary.AppendUvarint(nil, 100)}
	r.bytes()
	if r.err == nil {
		t.Error("overlong field served")
	}
}

func TestDispatchMalformedRequests(t *testing.T) {
	srv := NewServer(NewMemStore())
	cases := []struct {
		name string
		req  []byte
	}{
		{"empty request", nil},
		{"unknown op", []byte{99}},
		{"truncated header request", []byte{opHeader}},
		{"truncated read request", appendString([]byte{opReadBlock}, "doc")},
		{"oversized batch count", func() []byte {
			req := appendString([]byte{opReadBlocks}, "doc")
			req = binary.AppendUvarint(req, 0)
			return binary.AppendUvarint(req, maxBatchBlocks+1)
		}()},
		{"hostile field length", func() []byte {
			// docID length declared as 2^63: must be rejected in uint64
			// space, not wrapped through int into a slice panic.
			return binary.AppendUvarint([]byte{opHeader}, 1<<63)
		}()},
		{"hostile batch offset", func() []byte {
			// start chosen so that start+count overflows int64: the
			// bounds check must reject it, not panic on a wrapped slice.
			req := appendString([]byte{opReadBlocks}, "doc")
			req = binary.AppendUvarint(req, math.MaxInt64)
			return binary.AppendUvarint(req, 1)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := srv.dispatch(tc.req)
			if len(resp.head) <= 4 || resp.head[4] != statusErr {
				t.Errorf("dispatch(%v) = %v, want error status", tc.req, resp.head)
			}
			resp.release()
		})
	}
}

// TestDispatchBoundsCountsByBytes: a frame declaring more blocks or runs
// than its bytes could hold is refused before the server allocates for
// the count — a 10-byte put-blocks frame claiming 65 536 blocks used to
// cost a 1.5 MiB slice first. A maximum-size frame of empty blocks or
// empty runs — as many items as its bytes can declare — costs no more
// than maxBatchBlocks entries either: put-blocks refuses any count past
// that, and a commit refuses the first block or run the geometry rules
// out after reserving at most that many.
func TestDispatchBoundsCountsByBytes(t *testing.T) {
	srv := NewServer(NewMemStore())
	commitAgainst := func(h docenc.Header) []byte {
		hb, _ := h.MarshalBinary()
		return append(append(binary.AppendUvarint([]byte{opCommitDelta}, 1), make([]byte, 16)...), hb...)
	}
	commit := commitAgainst(sealedContainer("doc", 2).Header)
	// A geometry of 2^40 one-byte blocks: it bounds no count.
	vast := commitAgainst(docenc.Header{DocID: "doc", Version: 2, BlockPlain: 1, PayloadLen: 1 << 40})
	putBlocks := func(count uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint([]byte{opPutBlocks}, 1), 0), count)
	}
	cases := []struct {
		name    string
		req     []byte
		full    bool // the request is the head of a maxFrame-byte frame of zeros
		ceiling uint64
	}{
		{"put-blocks", putBlocks(1 << 16), false, 64 << 10},
		{"commit runs", binary.AppendUvarint(append([]byte(nil), commit...), 1<<40), false, 64 << 10},
		{"commit blocks", binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(append([]byte(nil), commit...), 1), 0), 1<<20), false, 64 << 10},
		{"put-blocks, full frame of empty blocks", putBlocks(maxFrame - 8), true, 64 << 10},
		{"put-blocks, the capped count of empty blocks", putBlocks(maxBatchBlocks), true, 2 << 20},
		{"commit, full frame of empty runs", binary.AppendUvarint(append([]byte(nil), vast...), maxFrame/16), true, 3 << 20},
		{"commit, full frame of empty blocks", binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(
			append([]byte(nil), vast...), 1), 0), maxFrame/16), true, 2 << 20},
	}
	frame := make([]byte, maxFrame)
	for _, tc := range cases {
		req := tc.req
		if tc.full {
			req = frame
			clear(req[:64]) // the previous case's head; the rest stays zero
			copy(req, tc.req)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := srv.dispatch(req)
		runtime.ReadMemStats(&after)
		if len(resp.head) <= 4 || resp.head[4] != statusErr {
			t.Errorf("%s: dispatch accepted the frame", tc.name)
		}
		resp.release()
		if n := after.TotalAlloc - before.TotalAlloc; n > tc.ceiling {
			t.Errorf("%s: a %d-byte frame cost %d bytes of allocation, want at most %d", tc.name, len(req), n, tc.ceiling)
		}
	}
}

// TestErrorStatusRoundTrip checks that a server-side error crosses the
// wire as a typed ServerError carrying the message.
func TestErrorStatusRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewMemStore())
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Header("missing-doc")
	var srvErr ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("want ServerError, got %T %v", err, err)
	}
	if !strings.Contains(err.Error(), "missing-doc") {
		t.Errorf("error lost the server message: %v", err)
	}
	// The connection stays synchronized after a server error.
	if _, err := client.ListDocuments(); err != nil {
		t.Fatal(err)
	}
}

// TestClientRejectsBadStatus drives the client against a fake server that
// answers with an unknown status byte.
func TestClientRejectsBadStatus(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	defer serverSide.Close()
	go func() {
		if _, err := readFrame(serverSide); err != nil {
			return
		}
		_ = writeFrame(serverSide, []byte{42})
	}()
	c := &Client{conn: clientSide}
	defer c.Close()
	_, err := c.ListDocuments()
	if err == nil || !strings.Contains(err.Error(), "bad response status") {
		t.Fatalf("bad status accepted: %v", err)
	}
}

// TestClientBoundsListCount: a server answering the id list with a count
// its reply cannot hold gets an error, not an allocation sized by it.
func TestClientBoundsListCount(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	defer serverSide.Close()
	go func() {
		if _, err := readFrame(serverSide); err != nil {
			return
		}
		_ = writeFrame(serverSide, binary.AppendUvarint([]byte{statusOK}, 1<<40))
	}()
	c := &Client{conn: clientSide}
	defer c.Close()
	if ids, err := c.ListDocuments(); err == nil {
		t.Fatalf("a list of 2^40 ids in 7 bytes accepted: %d ids", len(ids))
	}
}

// TestPipelinedResponsesStayOrdered sends several raw frames back to back
// on one connection before reading anything: the server must answer them
// in request order even though they execute on a worker pool.
func TestPipelinedResponsesStayOrdered(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	c := testContainer(t, "doc")
	if err := store.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	srv := NewServerConfig(store, ServerConfig{Workers: 8, PipelineDepth: 16})
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 10
	for i := 0; i < n; i++ {
		req := appendString([]byte{opReadBlock}, "doc")
		req = binary.AppendUvarint(req, uint64(i%len(c.Blocks)))
		if err := writeFrame(conn, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		resp, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) == 0 || resp[0] != statusOK {
			t.Fatalf("response %d: status %v", i, resp[:1])
		}
		want := c.Blocks[i%len(c.Blocks)]
		if !bytes.Equal(resp[1:], want) {
			t.Fatalf("response %d out of order", i)
		}
	}
}
