package dsp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"

	"repro/internal/docenc"
	"repro/internal/wire"
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

// Server exposes a Store over TCP through wire's serve loop: pipelined
// connections, a bounded worker pool, replies in request order, and a
// Close that drains in-flight requests within wire.DrainGrace.
type Server struct {
	*wire.Server[*response]

	store Store
	// Stats, when set, serves opStoreStats requests: the daemon wires it
	// to the cache and durable tiers it assembled around the store. Set
	// it before Serve; a server without the hook answers with a minimal
	// snapshot (document count only).
	Stats func() ServerStats

	// names holds the document ids and subjects of read requests, so
	// that a read names its document without allocating.
	names wire.Interner
}

// NewServer wraps a store with the default concurrency configuration.
func NewServer(store Store) *Server {
	return NewServerConfig(store, ServerConfig{})
}

// NewServerConfig wraps a store with an explicit configuration.
func NewServerConfig(store Store, cfg ServerConfig) *Server {
	s := &Server{store: store}
	s.Server = wire.NewServer("dsp", maxFrame, cfg.Workers, cfg.PipelineDepth, s.open)
	return s
}

// open is one connection's half of the serve loop: replies go out
// through its connWriter — one vectored write, or sendfile for file
// runs — and release their pins after.
func (s *Server) open(conn net.Conn, _ *wire.FrameConn) wire.Conn[*response] {
	cw := newConnWriter(conn)
	return wire.Conn[*response]{
		Dispatch: s.dispatch,
		Reply: func(resp *response, write bool) (err error) {
			if write {
				err = resp.writeToConn(cw)
			}
			resp.release()
			return err
		},
	}
}

// dispatch executes one request and builds the response in a pooled
// buffer; the per-connection writer releases it after the vectored
// write. Block payloads are referenced from the store, never copied.
// req goes back to the serve loop's pool when dispatch returns, so the
// ops whose store keeps request blocks (a container's, a delta's, a
// staged run's) copy them out once they have decoded; a store copies a
// sealed rule set itself.
func (s *Server) dispatch(req []byte) *response {
	resp := newResponse()
	if len(req) == 0 {
		return resp.setErr(fmt.Errorf("dsp: empty request"))
	}
	op := req[0]
	r := wire.NewReader(req[1:])
	switch op {
	case opPutDocument:
		c, err := docenc.UnmarshalContainer(r.Rest())
		if err != nil {
			return resp.setErr(err)
		}
		ownBlocks(c.Blocks)
		if err := s.store.PutDocument(c); err != nil {
			return resp.setErr(err)
		}
		return resp
	case opHeader:
		docID := s.names.String(r.Bytes())
		if r.Err() != nil {
			return resp.setErr(r.Err())
		}
		h, err := s.store.Header(docID)
		if err != nil {
			return resp.setErr(err)
		}
		resp.head, _ = h.AppendBinary(resp.head)
		return resp
	case opReadBlocks:
		docID := s.names.String(r.Bytes())
		start := r.ReadUvarintBounded(0, maxBlockOffset)
		count := r.ReadUvarintBounded(0, maxBatchBlocks)
		if r.Err() != nil {
			return resp.setErr(r.Err())
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
			blocks, err = rr.readRun(resp.read[:0], docID, start, count, &resp.pins, &resp.runs)
			resp.read = blocks
		} else {
			blocks, err = s.store.ReadBlocks(docID, start, count)
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
		// Versions are 32-bit; a wider wire value must fail loudly, not
		// be truncated into a base the client never named.
		base := r.ReadUvarintBounded(0, math.MaxUint32)
		hb := r.Bytes()
		if r.Err() != nil {
			return resp.setErr(r.Err())
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
		token := r.Uvarint()
		start := r.ReadUvarintBounded(0, maxBlockOffset)
		blocks := make([][]byte, r.ReadUvarintBounded(1, maxBatchBlocks))
		for i := range blocks {
			blocks[i] = r.Bytes()
		}
		if r.Err() != nil {
			return resp.setErr(r.Err())
		}
		ownBlocks(blocks)
		if err := up.PutBlocks(token, start, blocks); err != nil {
			return resp.setErr(err)
		}
		return resp
	case opCommitUpdate, opAbortUpdate:
		up, ok := s.store.(DocUpdater)
		if !ok {
			return resp.setErr(ErrUpdateUnsupported)
		}
		token := r.Uvarint()
		if r.Err() != nil {
			return resp.setErr(r.Err())
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
		d, err := readDelta(r)
		if err != nil {
			return resp.setErr(err)
		}
		for _, run := range d.Runs {
			ownBlocks(run.Blocks)
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
		docID := r.String()
		subject := r.String()
		version := r.Uvarint()
		sealed := r.Bytes()
		if r.Err() != nil {
			return resp.setErr(r.Err())
		}
		if err := s.store.PutRuleSet(docID, subject, uint32(version), sealed); err != nil {
			return resp.setErr(err)
		}
		return resp
	case opRuleSet:
		docID := s.names.String(r.Bytes())
		subject := s.names.String(r.Bytes())
		if r.Err() != nil {
			return resp.setErr(r.Err())
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

// ownBlocks moves blocks decoded out of a request into one slab of their
// own: the store keeps them, and the request buffer is reused once
// dispatch returns.
func ownBlocks(blocks [][]byte) {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	slab := make([]byte, 0, n)
	for i, b := range blocks {
		at := len(slab)
		slab = append(slab, b...)
		blocks[i] = slab[at:len(slab):len(slab)]
	}
}

// errFrameLimit is the oversized-response error, shared by dispatch's
// pre-check and writeTo's last-line defence.
func errFrameLimit(n int) error {
	return fmt.Errorf("dsp: batch response of %d bytes exceeds frame limit; request fewer blocks", n)
}
