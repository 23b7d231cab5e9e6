package dsp

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/race"
)

// frameRig serves a store over loopback TCP and returns a connected
// client (everything torn down with the test).
func frameRig(t *testing.T, store Store) *Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestClientBlockFrameAliasing: the frame contract — Blocks views alias
// the pooled buffer and die with Release, CopyOut survives it — holds
// when the next read reuses the buffer.
func TestClientBlockFrameAliasing(t *testing.T) {
	store := NewMemStore()
	doc := benchContainer("framed", 16, 1024)
	if err := store.PutDocument(doc); err != nil {
		t.Fatal(err)
	}
	c := frameRig(t, store)

	f, err := c.ReadBlocksFrame("framed", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Blocks()
	if len(got) != 4 {
		t.Fatalf("frame carries %d blocks, want 4", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], doc.Blocks[i]) {
			t.Fatalf("frame block %d differs", i)
		}
	}
	kept := f.CopyOut(1)
	alias := got[1] // view into the pooled buffer, invalid after Release
	var bufID *byte
	if len(f.buf) > 0 {
		bufID = &f.buf[:1][0]
	}
	f.Release()

	// The next read through the same (single-goroutine) pool reuses the
	// buffer; different request so the bytes under the old views change.
	f2, err := c.ReadBlocksFrame("framed", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Release()
	for i, b := range f2.Blocks() {
		if !bytes.Equal(b, doc.Blocks[8+i]) {
			t.Fatalf("second frame block %d differs", i)
		}
	}
	if !bytes.Equal(kept, doc.Blocks[1]) {
		t.Fatal("CopyOut data changed when the frame was reused")
	}
	reused := len(f2.buf) > 0 && bufID == &f2.buf[:1][0]
	if !reused {
		// sync.Pool may drop the frame (GC between reads); the aliasing
		// half of the contract is only observable when it kept it.
		t.Logf("pool did not reuse the frame buffer; aliasing unobservable this run")
	} else if bytes.Equal(alias, doc.Blocks[1]) {
		t.Fatal("released view still reads the old response after buffer reuse — Release is not reclaiming")
	}
}

// TestClientBlockFrameMatchesReadBlocks: both batched read paths decode
// the same response body identically, including the error cases.
func TestClientBlockFrameMatchesReadBlocks(t *testing.T) {
	store := NewMemStore()
	doc := benchContainer("paths", 32, 512)
	if err := store.PutDocument(doc); err != nil {
		t.Fatal(err)
	}
	c := frameRig(t, store)
	plain, err := c.ReadBlocks("paths", 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadBlocksFrame("paths", 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	framed := f.Blocks()
	if len(framed) != len(plain) {
		t.Fatalf("paths disagree on count: %d vs %d", len(framed), len(plain))
	}
	for i := range plain {
		if !bytes.Equal(plain[i], framed[i]) {
			t.Fatalf("paths disagree on block %d", i)
		}
	}
	if _, err := c.ReadBlocksFrame("paths", 30, 9); err == nil {
		t.Fatal("out-of-range framed read served")
	}
	if _, err := c.ReadBlocksFrame("paths", -1, 2); err == nil {
		t.Fatal("negative framed range served")
	}
	// The error path must have returned its frame to the pool without
	// wedging the connection.
	if _, err := c.ReadBlocks("paths", 0, 1); err != nil {
		t.Fatalf("connection unusable after framed error: %v", err)
	}
}

// TestWireReadAllocsFlatAcrossRunLength: the zero-copy acceptance test.
// Over a checkpoint-resident corpus (mmap-served where supported), the
// end-to-end allocations of a batched read must not scale with the block
// count: the server pins views instead of copying blocks and the client
// reuses pooled frames, so an 8× longer run may cost at most a fraction
// of an allocation more.
func TestWireReadAllocsFlatAcrossRunLength(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	defer s.Close()
	const nBlocks = 64
	doc := benchContainer("flat", nBlocks, 4096)
	if err := s.PutDocument(doc); err != nil {
		t.Fatal(err)
	}
	// Make the corpus checkpoint-resident: on mmap platforms the reads
	// below are served as pinned views into the image.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := frameRig(t, s)

	measure := func(run int) float64 {
		// Warm the pools (response head/blocks capacity, frame buffer) so
		// the measurement sees steady state, not first-use growth.
		for i := 0; i < 8; i++ {
			f, err := c.ReadBlocksFrame("flat", 0, run)
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
		return testing.AllocsPerRun(100, func() {
			f, err := c.ReadBlocksFrame("flat", 0, run)
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		})
	}
	small := measure(4)
	large := measure(32)
	t.Logf("allocs/op: run=4 → %.1f, run=32 → %.1f", small, large)
	// Per-op allocations are a fixed toll (the request buffer the server
	// reads into and the dispatch goroutine) on both sides; per-block cost
	// must be ~zero.
	// 28 extra blocks are allowed at most half an allocation each.
	if large-small > 14 {
		t.Fatalf("allocs grow with run length: %.1f at run=4 vs %.1f at run=32", small, large)
	}
}

// TestColdReadAllocs gates the fixed toll of a cold read: a pooled
// remote read of a checkpoint-resident 64-block run (Pool → Server →
// Cache → FileStore, sendfile where the platform has it) may make at
// most 8 allocations, counted process-wide, so both ends. What is left
// (6 on linux/amd64): the dispatch goroutine and its arguments, the
// request buffer the server reads into and hands to dispatch, the block
// slices the cache and the store each build for the run, and now and
// then the document id's string.
func TestColdReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops pooled buffers on purpose")
	}
	dir := t.TempDir()
	fs := openFileStore(t, dir, FileStoreOptions{})
	defer fs.Close()
	const nBlocks = 64
	if err := fs.PutDocument(benchContainer("cold", nBlocks, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewCache(fs, 1<<20))
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	p, err := DialPool(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	read := func() {
		f, err := p.ReadBlocksFrame("cold", 0, nBlocks)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	for i := 0; i < 16; i++ {
		read() // warm every pool and per-connection buffer
	}
	allocs := testing.AllocsPerRun(200, read)
	t.Logf("%.2f allocs per cold read of %d blocks", allocs, nBlocks)
	if allocs > 8 {
		t.Fatalf("a cold read of %d blocks made %.2f allocations, want at most 8", nBlocks, allocs)
	}
}
