package dsp

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/docenc"
	"repro/internal/secure"
)

// benchContainer builds a synthetic container: blockBytes of stored
// payload per block (the store never inspects ciphertext, so repeated
// bytes are as good as real AES output for wire benchmarks).
func benchContainer(docID string, nBlocks, blockBytes int) *docenc.Container {
	plain := blockBytes - secure.MACLen
	h := docenc.Header{DocID: docID, Version: 1, BlockPlain: uint32(plain),
		PayloadLen: uint64(plain) * uint64(nBlocks)}
	c := &docenc.Container{Header: h}
	for i := 0; i < nBlocks; i++ {
		c.Blocks = append(c.Blocks, bytes.Repeat([]byte{byte(i)}, blockBytes))
	}
	return c
}

// BenchmarkWireReadBlocks measures the batched block read path end to
// end over loopback TCP — store lookup, response framing, the wire, and
// the client decode — at skip-run shapes. AllocsPerOp covers both sides
// of the connection (the server goroutines run in-process), so it is
// the number the pooled zero-copy framing is accountable to.
func BenchmarkWireReadBlocks(b *testing.B) {
	for _, shape := range []struct {
		run        int
		blockBytes int
	}{
		{8, 1024},
		{8, 4096},
		{64, 4096},
	} {
		b.Run(fmt.Sprintf("run=%d/block=%d", shape.run, shape.blockBytes), func(b *testing.B) {
			store := NewMemStore()
			const nBlocks = 64
			if err := store.PutDocument(benchContainer("bench", nBlocks, shape.blockBytes)); err != nil {
				b.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := NewServer(store)
			go func() { _ = srv.Serve(l) }()
			defer srv.Close()
			c, err := Dial(l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			b.SetBytes(int64(shape.run * shape.blockBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := (i * shape.run) % nBlocks
				if at+shape.run > nBlocks {
					at = 0
				}
				blocks, err := c.ReadBlocks("bench", at, shape.run)
				if err != nil {
					b.Fatal(err)
				}
				if len(blocks) != shape.run {
					b.Fatalf("got %d blocks", len(blocks))
				}
			}
		})
	}
}

// writevListener hands out connections stripped of syscall.Conn, so
// the response writer ships every file run through writev.
type writevListener struct{ net.Listener }

func (l writevListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return struct{ net.Conn }{c}, nil
}

// BenchmarkWireReadBlocksMapped measures the full zero-copy pipeline
// over a checkpoint-resident corpus: blocks served as pinned views into
// the mmap'd image, written with one vectored write, decoded into a
// pooled client frame. Per-block server-side heap copies: zero — compare
// allocs/op across the run shapes to see it (the delta is the client's
// per-op toll, not per-block).
func BenchmarkWireReadBlocksMapped(b *testing.B) {
	for _, shape := range []struct {
		run        int
		blockBytes int
	}{
		{8, 4096},
		{64, 4096},
	} {
		b.Run(fmt.Sprintf("run=%d/block=%d", shape.run, shape.blockBytes), func(b *testing.B) {
			dir := b.TempDir()
			store, err := NewFileStoreOptions(dir, FileStoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			const nBlocks = 64
			if err := store.PutDocument(benchContainer("bench", nBlocks, shape.blockBytes)); err != nil {
				b.Fatal(err)
			}
			if err := store.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := NewServer(store)
			// Pin this benchmark to mapped writev: connections that are
			// not a syscall.Conn never attempt sendfile. The sendfile
			// variant below measures the kernel-resident path.
			go func() { _ = srv.Serve(writevListener{l}) }()
			defer srv.Close()
			c, err := Dial(l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			b.SetBytes(int64(shape.run * shape.blockBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := (i * shape.run) % nBlocks
				if at+shape.run > nBlocks {
					at = 0
				}
				f, err := c.ReadBlocksFrame("bench", at, shape.run)
				if err != nil {
					b.Fatal(err)
				}
				if len(f.Blocks()) != shape.run {
					b.Fatalf("got %d blocks", len(f.Blocks()))
				}
				f.Release()
			}
			b.StopTimer()
			if st := store.Stats(); mmapOn && st.MmapReads == 0 {
				b.Fatalf("benchmark did not exercise the mapped tier: %+v", st)
			}
		})
	}
}

// BenchmarkWireReadBlocksSendfile measures the kernel-resident cold
// serve path: the same checkpoint-resident corpus as
// BenchmarkWireReadBlocksMapped, but the run ships with sendfile(2) —
// page cache → socket without crossing the user mapping. Compare ns/op
// and allocs/op against the Mapped benchmark; on builds without
// sendfile the numbers converge because the frames are byte-identical
// by construction.
func BenchmarkWireReadBlocksSendfile(b *testing.B) {
	for _, shape := range []struct {
		run        int
		blockBytes int
	}{
		{8, 4096},
		{64, 4096},
	} {
		b.Run(fmt.Sprintf("run=%d/block=%d", shape.run, shape.blockBytes), func(b *testing.B) {
			dir := b.TempDir()
			store, err := NewFileStoreOptions(dir, FileStoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			const nBlocks = 64
			if err := store.PutDocument(benchContainer("bench", nBlocks, shape.blockBytes)); err != nil {
				b.Fatal(err)
			}
			if err := store.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := NewServer(store)
			go func() { _ = srv.Serve(l) }()
			defer srv.Close()
			c, err := Dial(l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			b.SetBytes(int64(shape.run * shape.blockBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := (i * shape.run) % nBlocks
				if at+shape.run > nBlocks {
					at = 0
				}
				f, err := c.ReadBlocksFrame("bench", at, shape.run)
				if err != nil {
					b.Fatal(err)
				}
				if len(f.Blocks()) != shape.run {
					b.Fatalf("got %d blocks", len(f.Blocks()))
				}
				f.Release()
			}
			b.StopTimer()
			wantSendfile := sendfileOn &&
				shape.run*shape.blockBytes >= sendfileMinRunBytes
			// The server counts a sendfile when the call returns, which can
			// be after the client has read every byte of it.
			st := store.Stats()
			for deadline := time.Now().Add(time.Second); wantSendfile && st.SendfileReads == 0 && time.Now().Before(deadline); st = store.Stats() {
				time.Sleep(time.Millisecond)
			}
			if wantSendfile && st.SendfileReads == 0 {
				b.Fatalf("benchmark did not exercise the sendfile tier: %+v", st)
			}
			if st.SendfileReads > 0 {
				b.ReportMetric(float64(st.SendfileBytes)/float64(st.SendfileReads), "B/sendfile")
			}
		})
	}
}

// BenchmarkWireReadBlock measures the single-block op the serial
// terminal issues — the per-round-trip floor of the pull path.
func BenchmarkWireReadBlock(b *testing.B) {
	store := NewMemStore()
	if err := store.PutDocument(benchContainer("bench", 64, 1024)); err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(store)
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadBlock("bench", i%64); err != nil {
			b.Fatal(err)
		}
	}
}
