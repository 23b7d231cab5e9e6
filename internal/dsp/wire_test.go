package dsp

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/docenc"
	"repro/internal/wire"
)

// malformedRequests are requests dispatch must refuse with an error
// reply; they also seed FuzzServerDispatch.
func malformedRequests() []struct {
	name string
	req  []byte
} {
	return []struct {
		name string
		req  []byte
	}{
		{"empty request", nil},
		{"unknown op", []byte{99}},
		{"truncated header request", []byte{opHeader}},
		{"truncated read request", wire.AppendString([]byte{opReadBlocks}, "doc")},
		{"retired single-block read", binary.AppendUvarint(wire.AppendString([]byte{3}, "doc"), 1)},
		{"oversized batch count", func() []byte {
			req := wire.AppendString([]byte{opReadBlocks}, "doc")
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
			req := wire.AppendString([]byte{opReadBlocks}, "doc")
			req = binary.AppendUvarint(req, math.MaxInt64)
			return binary.AppendUvarint(req, 1)
		}()},
	}
}

func TestDispatchMalformedRequests(t *testing.T) {
	store := NewMemStore()
	if err := store.PutDocument(fuzzContainer(1)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	for _, tc := range malformedRequests() {
		t.Run(tc.name, func(t *testing.T) {
			resp := srv.dispatch(tc.req)
			if len(resp.head) <= 4 || resp.head[4] != wire.StatusErr {
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
		if len(resp.head) <= 4 || resp.head[4] != wire.StatusErr {
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
		fc := wire.NewFrameConn(serverSide, maxFrame)
		if _, err := fc.ReadFrame(nil); err != nil {
			return
		}
		_ = fc.WriteFrame([]byte{42})
	}()
	c := newClient(clientSide)
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
		fc := wire.NewFrameConn(serverSide, maxFrame)
		if _, err := fc.ReadFrame(nil); err != nil {
			return
		}
		_ = fc.WriteFrame(binary.AppendUvarint([]byte{wire.StatusOK}, 1<<40))
	}()
	c := newClient(clientSide)
	defer c.Close()
	if ids, err := c.ListDocuments(); err == nil {
		t.Fatalf("a list of 2^40 ids in 7 bytes accepted: %d ids", len(ids))
	}
}
