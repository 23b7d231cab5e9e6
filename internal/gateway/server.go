package gateway

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/wire"
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

// Server terminates many concurrent subject connections over a
// fleet.Gateway through wire's serve loop, the dsp server's: a reader
// pulls frames, a bounded worker pool executes them against the fleet's
// session pool, and a per-connection writer puts responses back in
// request order.
//
// Close drains: in-flight queries finish and their responses flush
// (within wire.DrainGrace) before the connections come down — the
// behaviour a SIGTERM'd daemon owes clients mid-query. The fleet
// underneath is left open; the owner closes it after Close returns, so
// a final stats snapshot can still be taken.
type Server struct {
	*wire.Server[[]byte]

	fl    *fleet.Gateway
	label string
	// CacheStats, when set, contributes the local block-cache snapshot
	// to Stats (the daemon wires it to the cache it put in front of the
	// remote store).
	CacheStats func() dsp.CacheStats
	// StoreStats, when set, contributes the backing dsp store's snapshot
	// to Stats (WAL/fsync/mmap counters when the store is durable).
	StoreStats func() (*dsp.ServerStats, error)

	started time.Time

	wireSessions atomic.Int64 // wire sessions currently open
	queries      atomic.Int64 // queries served over the wire
}

// NewServer wraps a fleet gateway for wire service.
func NewServer(fl *fleet.Gateway, cfg ServerConfig) *Server {
	s := &Server{fl: fl, label: cfg.Label, started: time.Now()}
	s.Server = wire.NewServer("gateway", maxFrame, cfg.Workers, cfg.PipelineDepth, s.open)
	return s
}

// open is one connection's half of the serve loop: its wire-session
// table, replies written from their pooled buffers, and the sessions the
// client never closed dropped with the connection.
func (s *Server) open(_ net.Conn, fc *wire.FrameConn) wire.Conn[[]byte] {
	cs := &connState{sessions: make(map[uint64]string)}
	return wire.Conn[[]byte]{
		Dispatch: func(req []byte) []byte { return s.dispatch(cs, req) },
		Reply: func(resp []byte, write bool) (err error) {
			if write {
				err = fc.WriteFrame(resp)
			}
			wire.PutBuf(resp)
			return err
		},
		Done: func() {
			cs.mu.Lock()
			s.wireSessions.Add(-int64(len(cs.sessions)))
			cs.sessions = nil
			cs.mu.Unlock()
		},
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

// dispatch executes one request and builds the response in a pooled
// buffer (returned to the pool by the writer).
func (s *Server) dispatch(cs *connState, req []byte) []byte {
	resp := append(wire.GetBuf(), wire.StatusOK)
	fail := func(err error) []byte {
		resp = append(resp[:0], wire.StatusErr)
		return append(resp, err.Error()...)
	}
	if len(req) == 0 {
		return fail(fmt.Errorf("gateway: empty request"))
	}
	op := req[0]
	r := wire.NewReader(req[1:])
	switch op {
	case opOpen:
		subject := r.String()
		if r.Err() != nil {
			return fail(r.Err())
		}
		if subject == "" {
			return fail(fmt.Errorf("gateway: empty subject"))
		}
		sid := cs.open(subject)
		s.wireSessions.Add(1)
		return binary.AppendUvarint(resp, sid)
	case opQuery:
		sid := r.Uvarint()
		docID := r.String()
		query := r.String()
		if r.Err() != nil {
			return fail(r.Err())
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
		sid := r.Uvarint()
		if r.Err() != nil {
			return fail(r.Err())
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
