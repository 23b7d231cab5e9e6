package dsp

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"repro/internal/docenc"
	"repro/internal/wire"
)

// ServerError is an error the server reported about a request (unknown
// document, stale rule set, …). The connection that carried it is still
// healthy — transport failures are returned as ordinary errors instead.
type ServerError string

func (e ServerError) Error() string { return "dsp: server: " + string(e) }

// Client is a Store backed by a remote dspd server. Requests on one
// client are serialized (responses are correlated by order); use a Pool
// for concurrent traffic over several connections.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	fc   *wire.FrameConn
}

// Dial connects to a dspd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsp: dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}

// newClient is the client end of an established connection.
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, fc: wire.NewFrameConn(conn, maxFrame)}
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends a request and decodes the status byte.
func (c *Client) roundTrip(req []byte) ([]byte, error) {
	body, _, err := c.roundTripInto(req, nil)
	return body, err
}

// roundTripInto is roundTrip with a caller-supplied receive buffer: the
// response lands in buf when it fits (the pooled-frame read path). It
// returns the response body — aliasing the returned frame buffer — and
// the frame buffer itself so the caller can park it for reuse. req is a
// wire build buffer; it goes back to the pool.
func (c *Client) roundTripInto(req, buf []byte) (body, frameBuf []byte, err error) {
	defer wire.PutBuf(req)
	c.mu.Lock()
	defer c.mu.Unlock()
	body, frame, err := c.fc.RoundTrip(req, buf, serverError)
	if frame == nil {
		return nil, buf, err
	}
	return body, frame, err
}

// request starts a request in a pooled build buffer.
func request(op byte) []byte { return append(wire.GetBuf(), op) }

// PutDocument implements Store.
func (c *Client) PutDocument(container *docenc.Container) error {
	body, err := container.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(append(request(opPutDocument), body...))
	return err
}

// Header implements Store. The reply is read into a pooled buffer and
// decoded against docID, which the header keeps when it names it: a
// query's header fetch allocates nothing.
func (c *Client) Header(docID string) (docenc.Header, error) {
	body, frame, err := c.roundTripInto(wire.AppendString(request(opHeader), docID), wire.GetBuf())
	defer wire.PutBuf(frame)
	h := docenc.Header{DocID: docID}
	if err == nil {
		_, err = docenc.DecodeHeader(&h, body)
	}
	if err != nil {
		return docenc.Header{}, err
	}
	return h, nil
}

// ReadBlock implements Store as a one-block ReadBlocks, decoded into a
// list on the stack: the block aliases the reply frame.
func (c *Client) ReadBlock(docID string, idx int) ([]byte, error) {
	var one [1][]byte
	blocks, err := c.readBlocks(docID, idx, 1, one[:0])
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// ReadBlocks implements BlockRangeReader: one round trip for a whole
// skip-index run instead of count request/response exchanges.
func (c *Client) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	return c.readBlocks(docID, start, count, nil)
}

// readBlocks runs one opReadBlocks exchange and decodes the run into dst.
func (c *Client) readBlocks(docID string, start, count int, dst [][]byte) ([][]byte, error) {
	if start < 0 || count < 0 {
		return nil, errNegativeRange(start, count)
	}
	resp, err := c.roundTrip(readBlocksReq(docID, start, count))
	if err != nil {
		return nil, err
	}
	// The frame buffer was allocated for this response alone, so the
	// blocks can alias it instead of being copied out one by one. (The
	// pooled variant, ReadBlocksFrame, reuses buffers instead.)
	return parseBlockRun(resp, count, dst)
}

// readBlocksReq builds the opReadBlocks request frame.
func readBlocksReq(docID string, start, count int) []byte {
	req := wire.AppendString(request(opReadBlocks), docID)
	req = binary.AppendUvarint(req, uint64(start))
	return binary.AppendUvarint(req, uint64(count))
}

// parseBlockRun decodes an opReadBlocks response body into dst. The
// returned slices alias resp.
func parseBlockRun(resp []byte, count int, dst [][]byte) ([][]byte, error) {
	r := wire.NewReader(resp)
	n := r.ReadUvarintBounded(1, count)
	if r.Err() == nil && n != count {
		return nil, fmt.Errorf("dsp: batched read returned %d blocks, want %d", n, count)
	}
	if cap(dst) < n {
		dst = make([][]byte, 0, n)
	}
	for r.Err() == nil && len(dst) < n {
		dst = append(dst, r.Bytes())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return dst, nil
}

func errNegativeRange(start, count int) error {
	return fmt.Errorf("dsp: negative block range [%d,+%d)", start, count)
}

// CommitDelta implements DeltaCommitter: the whole delta in one frame,
// and the header the store holds afterwards in the reply.
func (c *Client) CommitDelta(d *docenc.DeltaUpdate) (docenc.Header, error) {
	resp, err := c.roundTrip(appendDelta(request(opCommitDelta), d))
	if err == nil && (len(resp) == 0 || resp[0] > 1) {
		err = fmt.Errorf("dsp: malformed commit reply")
	}
	if err != nil {
		return docenc.Header{}, err
	}
	h, n, err := docenc.UnmarshalHeader(resp[1:])
	switch {
	case err == nil && n != len(resp)-1:
		err = fmt.Errorf("dsp: %d trailing bytes after the commit reply", len(resp)-1-n)
	case err == nil && resp[0] == 1:
		err = fmt.Errorf("%w: the store holds version %d of %q", ErrBaseMoved, h.Version, h.DocID)
	}
	return h, err
}

// BeginUpdate implements DocUpdater against a remote server.
func (c *Client) BeginUpdate(h docenc.Header, baseVersion uint32) (uint64, error) {
	hb, err := h.MarshalBinary()
	if err != nil {
		return 0, err
	}
	req := binary.AppendUvarint(request(opBeginUpdate), uint64(baseVersion))
	req = wire.AppendBytes(req, hb)
	resp, err := c.roundTrip(req)
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(resp)
	token := r.Uvarint()
	return token, r.Err()
}

// PutBlocks implements DocUpdater: one staged run per round trip.
func (c *Client) PutBlocks(token uint64, start int, blocks [][]byte) error {
	if start < 0 {
		return fmt.Errorf("dsp: negative block offset %d", start)
	}
	req := binary.AppendUvarint(request(opPutBlocks), token)
	req = binary.AppendUvarint(req, uint64(start))
	req = binary.AppendUvarint(req, uint64(len(blocks)))
	for _, b := range blocks {
		req = wire.AppendBytes(req, b)
	}
	_, err := c.roundTrip(req)
	return err
}

// CommitUpdate implements DocUpdater.
func (c *Client) CommitUpdate(token uint64) error {
	_, err := c.roundTrip(binary.AppendUvarint(request(opCommitUpdate), token))
	return err
}

// AbortUpdate implements DocUpdater.
func (c *Client) AbortUpdate(token uint64) error {
	_, err := c.roundTrip(binary.AppendUvarint(request(opAbortUpdate), token))
	return err
}

// PutRuleSet implements Store.
func (c *Client) PutRuleSet(docID, subject string, version uint32, sealed []byte) error {
	req := wire.AppendString(request(opPutRuleSet), docID)
	req = wire.AppendString(req, subject)
	req = binary.AppendUvarint(req, uint64(version))
	req = wire.AppendBytes(req, sealed)
	_, err := c.roundTrip(req)
	return err
}

// RuleSet implements Store.
func (c *Client) RuleSet(docID, subject string) ([]byte, error) {
	req := wire.AppendString(request(opRuleSet), docID)
	req = wire.AppendString(req, subject)
	return c.roundTrip(req)
}

// ListDocuments implements Store.
func (c *Client) ListDocuments() ([]string, error) {
	resp, err := c.roundTrip(request(opList))
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(resp)
	out := make([]string, r.ReadUvarintBounded(1, maxFrame))
	for i := range out {
		out[i] = r.String()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return out, nil
}

var (
	_ Store          = (*Client)(nil)
	_ DocUpdater     = (*Client)(nil)
	_ DeltaCommitter = (*Client)(nil)
)
