package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DrainGrace bounds how long Close lets a connection flush the replies to
// the requests it had already read: a client that stopped reading cannot
// hold a draining server longer than this.
const DrainGrace = 5 * time.Second

// Conn is a daemon's half of one connection.
type Conn[R any] struct {
	// Dispatch executes one request frame. It runs on the worker pool,
	// concurrently with the connection's other requests. req is the
	// serve loop's pooled buffer, reused for another request once
	// Dispatch returns: what the reply or the daemon keeps of it must be
	// copied out.
	Dispatch func(req []byte) R
	// Reply writes resp as one frame and releases it. Once a write has
	// failed the connection is broken, and Reply gets every later
	// response with write false, to release it only.
	Reply func(resp R, write bool) error
	// Done, when set, runs once the connection is closed.
	Done func()
}

// Server is the serve loop of a framed protocol. Each connection
// pipelines: a reader pulls frames as fast as the client sends them, a
// worker pool bounded across all connections executes them, and a
// per-connection writer puts the replies back in request order (the
// protocols have no request ids, so order is the correlation).
//
// The workers are resident: one is started when a request finds every
// live worker busy and fewer than the bound are running, and each then
// takes request after request until Close stops them. A request costs a
// channel hand-off, not a goroutine, and its frame is read into a pooled
// buffer that goes back to the pool when Dispatch returns.
type Server[R any] struct {
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)

	name    string
	limit   int
	depth   int
	open    func(net.Conn, *FrameConn) Conn[R]
	maxWork int32

	// tasks hands a request to an idle worker; live counts the workers
	// started, working names them for Close.
	tasks   chan task[R]
	live    atomic.Int32
	working sync.WaitGroup

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup // connection handlers, and so their requests
}

// NewServer builds a serve loop that names itself name in errors and
// logs, refuses frames past limit, runs at most workers requests at once
// (<= 0: 4 × GOMAXPROCS) and lets one connection have at most depth in
// flight before its reader stops pulling frames (<= 0: 32). open builds
// the daemon's half of each accepted connection, given the connection and
// the FrameConn the serve loop reads its requests through.
func NewServer[R any](name string, limit, workers, depth int, open func(net.Conn, *FrameConn) Conn[R]) *Server[R] {
	if workers <= 0 {
		workers = 4 * runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 32
	}
	return &Server[R]{name: name, limit: limit, depth: depth, open: open,
		maxWork: int32(min(workers, math.MaxInt32)), tasks: make(chan task[R]),
		conns: make(map[net.Conn]struct{})}
}

// task is one read request on its way to a worker: the connection's
// Dispatch, the frame, and the channel its reply goes back on.
type task[R any] struct {
	dispatch func([]byte) R
	req      []byte
	reply    chan<- R
}

// requests recycles the request frames of every server: a frame goes
// back once Dispatch has returned.
var requests BufPool

// run hands t to an idle worker, starts a worker for it while fewer
// than the bound are running, or else waits for a worker to come free.
func (s *Server[R]) run(t task[R]) {
	select {
	case s.tasks <- t:
		return
	default:
	}
	if s.live.Add(1) <= s.maxWork {
		s.working.Add(1)
		go s.work(t)
		return
	}
	s.live.Add(-1)
	s.tasks <- t
}

// work is one resident worker: it executes t, then every task handed to
// it, until Close closes the task channel.
func (s *Server[R]) work(t task[R]) {
	defer s.working.Done()
	for ok := true; ok; t, ok = <-s.tasks {
		t.reply <- t.dispatch(t.req)
		requests.Put(t.req)
	}
}

// Serve accepts connections until the listener closes. It retains the
// listener so Close can stop it.
func (s *Server[R]) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return fmt.Errorf("%s: server is closed", s.name)
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if conn != nil {
				_ = conn.Close()
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server[R]) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Close drains the server. The listener stops; every connection's read
// deadline becomes now, so no new request is read; its write deadline
// becomes now + DrainGrace; the requests already dispatched finish and
// their replies flush; then the connections close. Close returns once
// every connection is down. Whole frames already in a connection's read
// buffer when Close lands need no read, so they are dispatched too and
// answered within the same DrainGrace; a frame cut short there is not.
// The resident workers stop last, so none outlives Close.
func (s *Server[R]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.handlers.Wait()
		s.working.Wait()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	now := time.Now()
	for c := range s.conns {
		_ = c.SetReadDeadline(now)
		_ = c.SetWriteDeadline(now.Add(DrainGrace))
	}
	s.mu.Unlock()
	s.handlers.Wait()
	// Every handler is gone, so nothing sends a task any more.
	close(s.tasks)
	s.working.Wait()
	return err
}

func (s *Server[R]) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle owns one connection: reader → worker pool → ordered writer. It
// returns, and deregisters the connection, only after every dispatched
// request has been answered or released.
func (s *Server[R]) handle(conn net.Conn) {
	fc := NewFrameConn(conn, s.limit)
	c := s.open(conn, fc)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		if c.Done != nil {
			c.Done()
		}
		s.handlers.Done()
	}()

	// pending carries, in request order, the channel each in-flight
	// request delivers its reply on. Its capacity is the pipeline depth: a
	// client that floods frames blocks the reader, not the pool. The
	// writer hands each drained channel back through spare, which holds
	// every channel the connection can have alive at once: those queued,
	// the writer's and the reader's.
	pending := make(chan chan R, s.depth)
	spare := make(chan chan R, s.depth+2)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		write := true
		for ch := range pending {
			resp := <-ch
			spare <- ch
			if err := c.Reply(resp, write); err != nil && write {
				if !errors.Is(err, net.ErrClosed) {
					s.logf("%s: connection %s: write: %v", s.name, remoteAddr(conn), err)
				}
				// Stop the reader too: without replies the client is wedged.
				_ = conn.Close()
				write = false
			}
		}
	}()

	for {
		buf := requests.Get()
		req, err := fc.ReadFrame(buf)
		if err != nil || cap(buf) < len(req) {
			requests.Put(buf) // unused: no frame, or one too large for it
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				s.logf("%s: connection %s: %v", s.name, remoteAddr(conn), err)
			}
			break
		}
		var ch chan R
		select {
		case ch = <-spare:
		default:
			ch = make(chan R, 1)
		}
		pending <- ch
		s.run(task[R]{dispatch: c.Dispatch, req: req, reply: ch})
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
