package dsp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/race"
)

// sendfileRig is a checkpointed FileStore corpus behind a real TCP
// server — the only conn type whose writer can attempt sendfile.
type sendfileRig struct {
	store *FileStore
	srv   *Server
	addr  string
}

func newSendfileRig(t testing.TB, opts FileStoreOptions, docID string, nBlocks, blockBytes int) *sendfileRig {
	t.Helper()
	store, err := NewFileStoreOptions(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutDocument(benchContainer(docID, nBlocks, blockBytes)); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	// Wire the durable tier into opStoreStats the way dspd does, so the
	// lockstep test exercises the same surface sdsctl reads.
	srv.Stats = func() ServerStats {
		var st ServerStats
		if ids, err := store.ListDocuments(); err == nil {
			st.Documents = len(ids)
		}
		ds := store.Stats()
		st.Durable = &ds
		return st
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = store.Close()
	})
	return &sendfileRig{store: store, srv: srv, addr: l.Addr().String()}
}

// settledStats returns the store's counters once the cold response the
// caller has just received is accounted for. The connection's writer
// bumps the sendfile counters after the bytes are on the wire, so a
// client can be back before them.
func (r *sendfileRig) settledStats(t testing.TB) FileStoreStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.store.Stats()
		if st.SendfileReads+st.SendfileFallbacks > 0 || !sendfileOn || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// framedReadBlocksReq encodes one opReadBlocks request as a full frame.
func framedReadBlocksReq(docID string, start, count int) []byte {
	body := readBlocksReq(docID, start, count)
	frame := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	return append(frame, body...)
}

// rawRoundTrip sends one pre-encoded request on conn and returns the raw
// response frame, length prefix stripped.
func rawRoundTrip(t *testing.T, conn net.Conn, req []byte) []byte {
	t.Helper()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, frame); err != nil {
		t.Fatal(err)
	}
	return frame
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// requireSendfile skips tests that need the store to produce file runs
// at all (linux without the nosendfile tag, mmap on).
func requireSendfile(t *testing.T) {
	t.Helper()
	requireMmap(t)
	if !sendfileOn {
		t.Skip("sendfile not supported in this build")
	}
}

// setSendfileOverride installs a test double for the sendfile syscall
// and restores the real one when the test ends.
func setSendfileOverride(t *testing.T, fn func(w io.Writer, span []byte) (int64, bool, error)) {
	t.Helper()
	testSendfileOverride = fn
	t.Cleanup(func() { testSendfileOverride = nil })
}

// TestSendfileServesColdRun: a cold 64-block batched read off a
// checkpointed corpus travels the sendfile tier — at least 90% of the
// wire payload leaves through sendfile(2), and the client still decodes
// the exact stored bytes.
func TestSendfileServesColdRun(t *testing.T) {
	requireSendfile(t)
	const nBlocks, blockBytes = 64, 4096
	rig := newSendfileRig(t, FileStoreOptions{}, "cold", nBlocks, blockBytes)

	c, err := Dial(rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blocks, err := c.ReadBlocks("cold", 0, nBlocks)
	if err != nil {
		t.Fatal(err)
	}
	want := benchContainer("cold", nBlocks, blockBytes)
	for i := range blocks {
		if !bytes.Equal(blocks[i], want.Blocks[i]) {
			t.Fatalf("block %d differs over the sendfile path", i)
		}
	}

	st := rig.settledStats(t)
	if st.SendfileReads == 0 {
		t.Fatalf("cold run did not use sendfile: %+v", st)
	}
	// Wire payload of the run: every stored block plus its varint prefix.
	var wire int64
	for _, b := range want.Blocks {
		wire += int64(uvarintLen(uint64(len(b))) + len(b))
	}
	if st.SendfileBytes < wire*9/10 {
		t.Fatalf("sendfile moved %d of %d wire bytes (< 90%%)", st.SendfileBytes, wire)
	}
	if st.SendfileFallbacks != 0 {
		t.Fatalf("unexpected fallbacks on a healthy connection: %+v", st)
	}

	// Heap bytes per cold read, both connection ends: the blocks ride the
	// kernel and a pooled client frame, so a read allocates bookkeeping —
	// less than one stored block, where the writev path allocates two.
	if race.Enabled {
		return
	}
	readFrame := func() {
		f, err := c.ReadBlocksFrame("cold", 0, nBlocks)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	for i := 0; i < 32; i++ { // warm the response, frame and worker pools
		readFrame()
	}
	const reads = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		readFrame()
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead > blockBytes {
		t.Errorf("a cold read allocates %d heap bytes, want <= %d", perRead, blockBytes)
	}
}

// TestSendfileByteIdentity: the same corpus served by a checkpointed
// FileStore (the sendfile tier, where the platform has one), by a
// MemStore (no file runs: the writev reference), and by the FileStore
// over a connection latched back to writev mid-stream produces
// byte-identical response frames.
func TestSendfileByteIdentity(t *testing.T) {
	const nBlocks, blockBytes = 64, 4096
	on := newSendfileRig(t, FileStoreOptions{}, "ident", nBlocks, blockBytes)
	mem := NewMemStore()
	if err := mem.PutDocument(benchContainer("ident", nBlocks, blockBytes)); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	off := NewServer(mem)
	go func() { _ = off.Serve(l) }()
	t.Cleanup(func() { _ = off.Close() })

	req := framedReadBlocksReq("ident", 0, nBlocks)
	fromOn := rawRoundTrip(t, dialRaw(t, on.addr), req)
	fromOff := rawRoundTrip(t, dialRaw(t, l.Addr().String()), req)
	if !bytes.Equal(fromOn, fromOff) {
		t.Fatalf("sendfile frame (%d bytes) differs from writev frame (%d bytes)",
			len(fromOn), len(fromOff))
	}

	// A connection that latches mid-response (kernel refusal after the
	// flush already started) must still emit the same frame.
	if sendfileOn {
		setSendfileOverride(t, func(w io.Writer, span []byte) (int64, bool, error) {
			return 0, true, nil // refuse outright: span rides the fallback write
		})
		latched := rawRoundTrip(t, dialRaw(t, on.addr), req)
		if !bytes.Equal(latched, fromOff) {
			t.Fatal("latched-connection frame differs from writev frame")
		}
	}
}

// TestSendfileShortWriteResumes: a sendfile that delivers only part of
// the span (then latches) must resume the fallback at the exact byte
// offset — the peer sees one well-formed, byte-identical frame — and
// count the fallback.
func TestSendfileShortWriteResumes(t *testing.T) {
	requireSendfile(t)
	const nBlocks, blockBytes = 64, 4096
	rig := newSendfileRig(t, FileStoreOptions{}, "short", nBlocks, blockBytes)
	req := framedReadBlocksReq("short", 0, nBlocks)
	want := rawRoundTrip(t, dialRaw(t, rig.addr), req)

	var calls atomic.Int64
	setSendfileOverride(t, func(w io.Writer, span []byte) (int64, bool, error) {
		calls.Add(1)
		half := int64(len(span) / 2)
		n, err := w.Write(span[:half])
		return int64(n), true, err // deliver half, then refuse
	})
	conn := dialRaw(t, rig.addr)
	got := rawRoundTrip(t, conn, req)
	if !bytes.Equal(got, want) {
		t.Fatal("short-write resume produced a different frame")
	}
	if calls.Load() != 1 {
		t.Fatalf("override called %d times, want 1", calls.Load())
	}
	// The refusal latched this connection: the next request on it must
	// not attempt sendfile again.
	got2 := rawRoundTrip(t, conn, req)
	if !bytes.Equal(got2, want) {
		t.Fatal("post-latch frame differs")
	}
	if calls.Load() != 1 {
		t.Fatalf("latched connection attempted sendfile again (%d calls)", calls.Load())
	}
	st := rig.store.Stats()
	if st.SendfileFallbacks == 0 {
		t.Fatalf("short write not counted as a fallback: %+v", st)
	}
}

// TestSendfileFatalErrorReleasesPins: a connection that dies mid-flush
// (fatal sendfile error) must release every pin exactly once — the
// region refcount returns to its owner-only baseline and a checkpoint
// retirement can still unmap it.
func TestSendfileFatalErrorReleasesPins(t *testing.T) {
	requireSendfile(t)
	const nBlocks, blockBytes = 64, 4096
	rig := newSendfileRig(t, FileStoreOptions{}, "fatal", nBlocks, blockBytes)

	setSendfileOverride(t, func(w io.Writer, span []byte) (int64, bool, error) {
		// Deliver a prefix, then kill the transfer: the writer must tear
		// the connection down without double-releasing the response.
		n, _ := w.Write(span[:10])
		return int64(n), false, fmt.Errorf("injected: peer vanished")
	})
	conn := dialRaw(t, rig.addr)
	if _, err := conn.Write(framedReadBlocksReq("fatal", 0, nBlocks)); err != nil {
		t.Fatal(err)
	}
	// The server aborts the flush and closes the connection; drain until
	// we observe it.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("draining broken connection: %v", err)
	}
	// Close the server (waits for the handler, hence for the writer's
	// release path), then check the region holds only its owner ref.
	if err := rig.srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range rig.store.segs {
		if seg.region == nil {
			continue
		}
		if refs := seg.region.refs.Load(); refs != 1 {
			t.Fatalf("segment %d region holds %d refs after broken flush, want 1 (owner)", seg.idx, refs)
		}
	}
}

// TestSendfileDisabledProducesNoRuns: where the sendfile tier is off —
// a platform without sendfile or without mmap (the nosendfile and
// nommap builds) — the dispatch path stays on plain pinned reads and no
// file runs reach the response; heap-resident blocks never produce runs
// on any platform.
func TestSendfileDisabledProducesNoRuns(t *testing.T) {
	store, err := NewFileStoreOptions(t.TempDir(), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.PutDocument(benchContainer("noruns", 64, 4096)); err != nil {
		t.Fatal(err)
	}
	readRuns := func() []wireRun {
		var pins []BlockPin
		var runs []wireRun
		if _, err := store.readRun(nil, "noruns", 0, 64, &pins, &runs); err != nil {
			t.Fatal(err)
		}
		for _, p := range pins {
			p.Release()
		}
		return runs
	}
	if runs := readRuns(); len(runs) != 0 {
		t.Fatalf("heap-resident read produced %d file runs", len(runs))
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if runs := readRuns(); (len(runs) > 0) != sendfileOn {
		t.Fatalf("checkpointed read produced %d file runs with the sendfile tier on = %v", len(runs), sendfileOn)
	}
}

// TestSendfileRunDetection: runs must cover exactly the contiguous
// checkpoint-resident stretch, skip sub-threshold stretches, and carry
// wire-exact spans (each block's varint prefix followed by its bytes).
func TestSendfileRunDetection(t *testing.T) {
	requireSendfile(t)
	store, err := NewFileStoreOptions(t.TempDir(), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const nBlocks, blockBytes = 64, 4096
	if err := store.PutDocument(benchContainer("runs", nBlocks, blockBytes)); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var pins []BlockPin
	var runs []wireRun
	blocks, err := store.readRun(nil, "runs", 0, nBlocks, &pins, &runs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, p := range pins {
			p.Release()
		}
	}()
	if len(runs) != 1 {
		t.Fatalf("contiguous corpus produced %d runs, want 1", len(runs))
	}
	run := runs[0]
	if run.Start != 0 || run.Count != nBlocks {
		t.Fatalf("run covers [%d,+%d), want [0,+%d)", run.Start, run.Count, nBlocks)
	}
	if run.File == nil || run.Stats == nil {
		t.Fatal("run missing file or stats sink")
	}
	// The span is the wire encoding of its blocks.
	var wire []byte
	for i := run.Start; i < run.Start+run.Count; i++ {
		wire = binary.AppendUvarint(wire, uint64(len(blocks[i])))
		wire = append(wire, blocks[i]...)
	}
	if !bytes.Equal(run.Span, wire) {
		t.Fatalf("run span (%d bytes) is not the wire encoding (%d bytes)", len(run.Span), len(wire))
	}

	// A sub-threshold read stays off the sendfile path entirely.
	pins, runs = pins[:len(pins):len(pins)], nil
	small := sendfileMinRunBytes/blockBytes - 1
	if _, err := store.readRun(nil, "runs", 0, small, &pins, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("%d-block read (below threshold) produced %d runs", small, len(runs))
	}
}

// TestSendfileStatsLockstep: the operator surfaces cannot drift — the
// wire StoreStats snapshot carries the same Sendfile counters the
// in-process Stats() reports, under the exact field names the JSON
// surface (sdsctl stats) prints.
func TestSendfileStatsLockstep(t *testing.T) {
	requireMmap(t)
	const nBlocks, blockBytes = 64, 4096
	rig := newSendfileRig(t, FileStoreOptions{}, "lockstep", nBlocks, blockBytes)
	c, err := Dial(rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadBlocks("lockstep", 0, nBlocks); err != nil {
		t.Fatal(err)
	}
	rig.settledStats(t)

	remote, err := c.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if remote.Durable == nil {
		t.Fatal("FileStore-backed server reported no durable stats")
	}
	local := rig.store.Stats()
	if remote.Durable.SendfileReads != local.SendfileReads ||
		remote.Durable.SendfileBytes != local.SendfileBytes ||
		remote.Durable.SendfileFallbacks != local.SendfileFallbacks {
		t.Fatalf("wire stats %+v drifted from local %+v", remote.Durable, local)
	}
	if sendfileOn && remote.Durable.SendfileReads == 0 {
		t.Fatal("capable build served the cold run without sendfile")
	}

	// The JSON surface must expose the counters by name (no tags may
	// rename or drop them) — sdsctl prints exactly this marshalling.
	raw, err := json.Marshal(remote.Durable)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"SendfileReads", "SendfileBytes", "SendfileFallbacks"} {
		if _, ok := fields[key]; !ok {
			t.Fatalf("stats JSON lost %s: %s", key, raw)
		}
	}
}

// TestSendfileRetirementKeepsFileAlive: retiring a checkpoint epoch
// while a response still pins the old region must keep the old *file*
// open until the pin drops — a file run resolved before the retirement
// stays readable (sendfile reads the inode, not the path).
func TestSendfileRetirementKeepsFileAlive(t *testing.T) {
	requireSendfile(t)
	store, err := NewFileStoreOptions(t.TempDir(), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const nBlocks, blockBytes = 64, 4096
	if err := store.PutDocument(benchContainer("epoch", nBlocks, blockBytes)); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var pins []BlockPin
	var runs []wireRun
	if _, err := store.readRun(nil, "epoch", 0, nBlocks, &pins, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	oldFile := runs[0].File

	// New version, new checkpoint: the old epoch's image is replaced on
	// disk and its region retired — but our pin holds it.
	if err := store.PutDocument(benchContainer("epoch", nBlocks, blockBytes)); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The old file descriptor still serves the run's bytes.
	buf := make([]byte, len(runs[0].Span))
	if _, err := oldFile.ReadAt(buf, runs[0].Off); err != nil {
		t.Fatalf("retired epoch's file unreadable while pinned: %v", err)
	}
	if !bytes.Equal(buf, runs[0].Span) {
		t.Fatal("retired epoch's file bytes differ from the mapped span")
	}

	for _, p := range pins {
		p.Release()
	}
	// With the last pin gone the region unmapped and closed the file.
	if _, err := oldFile.ReadAt(buf[:1], 0); err == nil {
		t.Fatal("old checkpoint file still open after the last pin released")
	}
}
