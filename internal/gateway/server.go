package gateway

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsp"
	"repro/internal/fleet"
)

// ServerConfig tunes the serving machinery.
type ServerConfig struct {
	// Workers bounds the requests executing at once across all
	// connections (<= 0: 4 × GOMAXPROCS). The fleet's own admission
	// bound still applies underneath.
	Workers int
	// PipelineDepth bounds how many requests one connection may have in
	// flight before its reader stops pulling frames (<= 0: 32).
	PipelineDepth int
	// Label names this daemon in stats output.
	Label string
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

// Server terminates many concurrent subject connections over a
// fleet.Gateway. Each connection pipelines like the dsp server: a
// reader pulls frames, a bounded worker pool executes them against the
// fleet's session pool, and a per-connection writer puts responses back
// in request order.
//
// Close drains gracefully: in-flight queries finish and their responses
// flush before the connections come down — the behaviour a SIGTERM'd
// daemon owes clients mid-query.
type Server struct {
	fl  *fleet.Gateway
	cfg ServerConfig
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
	// CacheStats, when set, contributes the local block-cache snapshot
	// to Stats (the daemon wires it to the cache it put in front of the
	// remote store).
	CacheStats func() dsp.CacheStats
	// StoreStats, when set, contributes the backing dsp store's snapshot
	// to Stats (WAL/fsync/mmap counters when the store is durable).
	StoreStats func() (*dsp.ServerStats, error)

	workers chan struct{}
	started time.Time

	wireSessions atomic.Int64 // wire sessions currently open
	queries      atomic.Int64 // queries served over the wire

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup
}

// NewServer wraps a fleet gateway for wire service.
func NewServer(fl *fleet.Gateway, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		fl:      fl,
		cfg:     cfg,
		workers: make(chan struct{}, cfg.Workers),
		conns:   make(map[net.Conn]struct{}),
		started: time.Now(),
	}
}

// Fleet exposes the wrapped gateway (the daemon closes it after drain).
func (s *Server) Fleet() *fleet.Gateway { return s.fl }

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return fmt.Errorf("gateway: server is closed")
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

// Close drains the server: the listener stops, every connection's
// reader is kicked (reads unblock; writes are untouched), in-flight
// requests finish and their responses flush, and only then do the
// connections come down. The fleet underneath is left open — the owner
// closes it after Close returns, so a final stats snapshot can still be
// taken.
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
	// Expire reads immediately: each connection's reader returns its
	// in-flight ReadFull with a timeout, stops pulling frames, and the
	// per-connection writer drains what was already dispatched before
	// the handler closes the socket. A plain conn.Close here would race
	// the final response writes.
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
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

// connState is one connection's wire-session table: ids handed out by
// opOpen, looked up by opQuery, dropped by opClose. Guarded by its own
// lock because pipelined requests on one connection execute
// concurrently in the worker pool.
type connState struct {
	mu       sync.Mutex
	next     uint64
	sessions map[uint64]string
}

func (cs *connState) open(subject string) uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.next++
	cs.sessions[cs.next] = subject
	return cs.next
}

func (cs *connState) lookup(sid uint64) (string, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	subject, ok := cs.sessions[sid]
	return subject, ok
}

func (cs *connState) close(sid uint64) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, ok := cs.sessions[sid]; !ok {
		return false
	}
	delete(cs.sessions, sid)
	return true
}

// handle owns one connection: reader → worker pool → ordered writer,
// the dsp server's shape.
func (s *Server) handle(conn net.Conn) {
	cs := &connState{sessions: make(map[uint64]string)}
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		// Sessions the client never closed die with the connection.
		cs.mu.Lock()
		s.wireSessions.Add(-int64(len(cs.sessions)))
		cs.sessions = nil
		cs.mu.Unlock()
		s.handlers.Done()
	}()

	pending := make(chan chan []byte, s.cfg.PipelineDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		broken := false
		for ch := range pending {
			resp := <-ch
			if !broken {
				if err := writeFrame(conn, resp); err != nil {
					if !errors.Is(err, net.ErrClosed) {
						s.logf("gateway: connection %s: write: %v", remoteAddr(conn), err)
					}
					_ = conn.Close()
					broken = true
				}
			}
			putBuf(resp)
		}
	}()

	for {
		req, err := readFrameInto(conn, nil)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				s.logf("gateway: connection %s: %v", remoteAddr(conn), err)
			}
			break
		}
		ch := make(chan []byte, 1)
		pending <- ch
		s.workers <- struct{}{}
		go func(req []byte, ch chan<- []byte) {
			defer func() { <-s.workers }()
			ch <- s.dispatch(cs, req)
		}(req, ch)
	}
	close(pending)
	<-writerDone
}

func remoteAddr(conn net.Conn) string {
	if a := conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// dispatch executes one request and builds the response in a pooled
// buffer (returned to the pool by the writer).
func (s *Server) dispatch(cs *connState, req []byte) []byte {
	resp := append(getBuf(), statusOK)
	fail := func(err error) []byte {
		resp = append(resp[:0], statusErr)
		return append(resp, err.Error()...)
	}
	if len(req) == 0 {
		return fail(fmt.Errorf("gateway: empty request"))
	}
	op := req[0]
	r := &wireReader{data: req, pos: 1}
	switch op {
	case opOpen:
		subject := r.string()
		if r.err != nil {
			return fail(r.err)
		}
		if subject == "" {
			return fail(fmt.Errorf("gateway: empty subject"))
		}
		sid := cs.open(subject)
		s.wireSessions.Add(1)
		return binary.AppendUvarint(resp, sid)
	case opQuery:
		sid := r.uvarint()
		docID := r.string()
		query := r.string()
		if r.err != nil {
			return fail(r.err)
		}
		subject, ok := cs.lookup(sid)
		if !ok {
			return fail(fmt.Errorf("gateway: unknown session %d", sid))
		}
		res, err := s.fl.Query(subject, docID, query)
		if err != nil {
			return fail(err)
		}
		resp = binary.AppendUvarint(resp, uint64(res.Version))
		resp = binary.AppendUvarint(resp, uint64(res.Stats.BlocksFetched))
		resp = binary.AppendUvarint(resp, uint64(res.Stats.BlocksWasted))
		// The view renders straight into the response frame. One that has
		// no XML form is a failed query, not a reply: the client must not
		// receive a diagnostic in place of a document under status OK.
		resp, err = res.AppendXML(resp)
		if err != nil {
			s.fl.CountError(subject)
			return fail(fmt.Errorf("gateway: result of %s cannot be serialized: %w", docID, err))
		}
		s.queries.Add(1)
		return resp
	case opClose:
		sid := r.uvarint()
		if r.err != nil {
			return fail(r.err)
		}
		if !cs.close(sid) {
			return fail(fmt.Errorf("gateway: unknown session %d", sid))
		}
		s.wireSessions.Add(-1)
		return resp
	case opStats:
		js, err := json.Marshal(s.Snapshot())
		if err != nil {
			return fail(err)
		}
		return append(resp, js...)
	default:
		return fail(fmt.Errorf("gateway: unknown op %d", op))
	}
}
