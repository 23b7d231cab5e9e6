package dsp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"

	"repro/internal/docenc"
)

// ServerConfig tunes the concurrent serving machinery.
type ServerConfig struct {
	// Workers bounds the number of requests executing at once across all
	// connections (<= 0: 4 × GOMAXPROCS). One worker degenerates to the
	// strictly sequential server.
	Workers int
	// PipelineDepth bounds how many requests one connection may have in
	// flight before the reader stops pulling frames (<= 0: 32). Depth 1
	// degenerates to strict request/response.
	PipelineDepth int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 32
	}
	return c
}

// Server exposes a Store over TCP. Each connection pipelines: a reader
// pulls frames as fast as the client sends them, a bounded worker pool
// executes them, and a per-connection writer puts responses back on the
// wire in request order (the protocol has no request ids, so ordering is
// the correlation).
type Server struct {
	store Store
	cfg   ServerConfig
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
	// Stats, when set, serves opStoreStats requests: the daemon wires it
	// to the cache and durable tiers it assembled around the store. Set
	// it before Serve; a server without the hook answers with a minimal
	// snapshot (document count only).
	Stats func() ServerStats

	workers chan struct{} // worker-pool slots

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup // in-flight connection handlers
}

// NewServer wraps a store with the default concurrency configuration.
func NewServer(store Store) *Server {
	return NewServerConfig(store, ServerConfig{})
}

// NewServerConfig wraps a store with an explicit configuration.
func NewServerConfig(store Store, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		store:   store,
		cfg:     cfg,
		workers: make(chan struct{}, cfg.Workers),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections until the listener closes. It retains the
// listener so Close can stop it.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return fmt.Errorf("dsp: server is closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Close stops the listener, closes every connection, and waits for all
// in-flight handlers (and the requests they dispatched) to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.handlers.Wait()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.handlers.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle owns one connection: it reads frames, fans them out to the
// worker pool, and hands each request's response slot to the writer in
// arrival order. It returns (and deregisters the connection exactly once)
// only after every dispatched request has been answered or abandoned.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		s.handlers.Done()
	}()

	// pending carries, in request order, the channel each in-flight
	// request will deliver its response on. Its capacity is the pipeline
	// depth: a client that floods frames blocks the reader, not the pool.
	pending := make(chan chan *response, s.cfg.PipelineDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		cw := newConnWriter(conn)
		broken := false
		for ch := range pending {
			resp := <-ch
			if broken {
				resp.release()
				continue // drain so dispatchers are never abandoned
			}
			err := resp.writeToConn(cw)
			resp.release()
			if err != nil {
				if !errors.Is(err, net.ErrClosed) {
					s.logf("dsp: connection %s: write: %v", remoteAddr(conn), err)
				}
				// Stop the reader too: without responses the client is wedged.
				_ = conn.Close()
				broken = true
			}
		}
	}()

	for {
		req, err := readFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("dsp: connection %s: %v", remoteAddr(conn), err)
			}
			break
		}
		ch := make(chan *response, 1)
		pending <- ch
		s.workers <- struct{}{}
		go func(req []byte, ch chan<- *response) {
			defer func() { <-s.workers }()
			ch <- s.dispatch(req)
		}(req, ch)
	}
	close(pending)
	<-writerDone
}

// remoteAddr formats a peer address defensively (tests may pass pipes).
func remoteAddr(conn net.Conn) string {
	if a := conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// dispatch executes one request and builds the response in a pooled
// buffer; the per-connection writer releases it after the vectored
// write. Block payloads are referenced from the store, never copied.
func (s *Server) dispatch(req []byte) *response {
	resp := newResponse()
	if len(req) == 0 {
		return resp.setErr(fmt.Errorf("dsp: empty request"))
	}
	op := req[0]
	r := &wireReader{data: req, pos: 1}
	switch op {
	case opPutDocument:
		c, err := docenc.UnmarshalContainer(r.rest())
		if err != nil {
			return resp.setErr(err)
		}
		if err := s.store.PutDocument(c); err != nil {
			return resp.setErr(err)
		}
		return resp
	case opHeader:
		docID := r.string()
		if r.err != nil {
			return resp.setErr(r.err)
		}
		h, err := s.store.Header(docID)
		if err != nil {
			return resp.setErr(err)
		}
		hb, err := h.MarshalBinary()
		if err != nil {
			return resp.setErr(err)
		}
		resp.appendBody(hb)
		return resp
	case opReadBlock:
		docID := r.string()
		idx := r.uvarint()
		if r.err != nil {
			return resp.setErr(r.err)
		}
		b, err := s.store.ReadBlock(docID, int(idx))
		if err != nil {
			return resp.setErr(err)
		}
		resp.appendRaw(b)
		return resp
	case opReadBlocks:
		docID := r.string()
		start := r.uvarint()
		count := r.uvarint()
		if r.err != nil {
			return resp.setErr(r.err)
		}
		if count > maxBatchBlocks {
			return resp.setErr(fmt.Errorf("dsp: batch of %d blocks exceeds limit %d", count, maxBatchBlocks))
		}
		// No document has anywhere near 2^31 blocks: reject hostile
		// offsets before they reach int arithmetic.
		if start > 1<<31 {
			return resp.setErr(fmt.Errorf("dsp: block offset %d out of range", start))
		}
		// Pin instead of copy: a store with an mmap tier serves
		// checkpoint-resident blocks as views into the mapping, held
		// alive by resp.pins until the writer finishes the vectored
		// write and releases the response. A store with a sendfile tier
		// additionally reports contiguous checkpoint-file runs; those
		// ride the response as wire-exact spans the connection writer
		// may ship kernel-side.
		var blocks [][]byte
		var err error
		if rr, ok := s.store.(runReader); ok {
			blocks, err = rr.readRun(docID, int(start), int(count), &resp.pins, &resp.runs)
		} else {
			blocks, err = ReadBlockRange(s.store, docID, int(start), int(count))
		}
		if err != nil {
			return resp.setErr(err)
		}
		resp.appendUvarint(uint64(len(blocks)))
		for i, ri := 0, 0; i < len(blocks); {
			if ri < len(resp.runs) && resp.runs[ri].Start == i {
				run := resp.runs[ri]
				ri++
				resp.appendFileRun(run)
				i += run.Count
				continue
			}
			resp.appendBlock(blocks[i])
			i++
		}
		// A run of large blocks can outgrow the frame limit even within
		// the count cap; report it as an error the client can act on
		// (request fewer blocks) instead of letting the writer tear the
		// connection down on an unsendable frame.
		if resp.size() > maxFrame {
			return resp.setErr(errFrameLimit(resp.size()))
		}
		return resp
	case opBeginUpdate:
		up, ok := s.store.(DocUpdater)
		if !ok {
			return resp.setErr(ErrUpdateUnsupported)
		}
		base := r.uvarint()
		hb := r.bytes()
		if r.err != nil {
			return resp.setErr(r.err)
		}
		// Versions are 32-bit; a wider wire value must fail loudly, not
		// be truncated into a base the client never named.
		if base > math.MaxUint32 {
			return resp.setErr(fmt.Errorf("dsp: base version %d out of range", base))
		}
		h, _, err := docenc.UnmarshalHeader(hb)
		if err != nil {
			return resp.setErr(err)
		}
		token, err := up.BeginUpdate(h, uint32(base))
		if err != nil {
			return resp.setErr(err)
		}
		resp.appendUvarint(token)
		return resp
	case opPutBlocks:
		up, ok := s.store.(DocUpdater)
		if !ok {
			return resp.setErr(ErrUpdateUnsupported)
		}
		token := r.uvarint()
		start := r.uvarint()
		blocks := make([][]byte, r.readUvarintBounded(1, maxBatchBlocks))
		for i := range blocks {
			blocks[i] = r.bytes()
		}
		if r.err != nil {
			return resp.setErr(r.err)
		}
		if start > 1<<31 {
			return resp.setErr(fmt.Errorf("dsp: block offset %d out of range", start))
		}
		if err := up.PutBlocks(token, int(start), blocks); err != nil {
			return resp.setErr(err)
		}
		return resp
	case opCommitUpdate, opAbortUpdate:
		up, ok := s.store.(DocUpdater)
		if !ok {
			return resp.setErr(ErrUpdateUnsupported)
		}
		token := r.uvarint()
		if r.err != nil {
			return resp.setErr(r.err)
		}
		var err error
		if op == opCommitUpdate {
			err = up.CommitUpdate(token)
		} else {
			err = up.AbortUpdate(token)
		}
		if err != nil {
			return resp.setErr(err)
		}
		return resp
	case opCommitDelta:
		dc, ok := s.store.(DeltaCommitter)
		if !ok {
			return resp.setErr(ErrUpdateUnsupported)
		}
		d, err := r.delta()
		if err != nil {
			return resp.setErr(err)
		}
		h, err := dc.CommitDelta(d)
		var moved byte
		if errors.Is(err, ErrBaseMoved) {
			moved, err = 1, nil
		}
		if err != nil {
			return resp.setErr(err)
		}
		resp.head, _ = h.AppendBinary(append(resp.head, moved))
		return resp
	case opPutRuleSet:
		docID := r.string()
		subject := r.string()
		version := r.uvarint()
		sealed := r.bytes()
		if r.err != nil {
			return resp.setErr(r.err)
		}
		if err := s.store.PutRuleSet(docID, subject, uint32(version), sealed); err != nil {
			return resp.setErr(err)
		}
		return resp
	case opRuleSet:
		docID := r.string()
		subject := r.string()
		if r.err != nil {
			return resp.setErr(r.err)
		}
		sealed, err := s.store.RuleSet(docID, subject)
		if err != nil {
			return resp.setErr(err)
		}
		resp.appendRaw(sealed)
		return resp
	case opStoreStats:
		var st ServerStats
		if s.Stats != nil {
			st = s.Stats()
		} else if ids, err := s.store.ListDocuments(); err == nil {
			st.Documents = len(ids)
		}
		js, err := json.Marshal(st)
		if err != nil {
			return resp.setErr(err)
		}
		resp.appendBody(js)
		return resp
	case opList:
		ids, err := s.store.ListDocuments()
		if err != nil {
			return resp.setErr(err)
		}
		resp.appendUvarint(uint64(len(ids)))
		for _, id := range ids {
			resp.appendString(id)
		}
		return resp
	default:
		return resp.setErr(fmt.Errorf("dsp: unknown op %d", op))
	}
}

// errFrameLimit is the oversized-response error, shared by dispatch's
// pre-check and writeTo's last-line defence.
func errFrameLimit(n int) error {
	return fmt.Errorf("dsp: batch response of %d bytes exceeds frame limit; request fewer blocks", n)
}
