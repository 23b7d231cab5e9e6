package dsp

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/docenc"
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

	// bytesRead counts response payload bytes: the "transferred from the
	// DSP" measure of experiment E3 when running against a real server.
	bytesRead atomic.Int64
	// bytesWritten counts request payload bytes: the upload cost of a
	// publish, full or delta.
	bytesWritten atomic.Int64
}

// Dial connects to a dspd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsp: dial %s: %w", addr, err)
	}
	return &Client{conn: conn}, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// BytesRead reports the response payload bytes received so far.
func (c *Client) BytesRead() int64 { return c.bytesRead.Load() }

// BytesWritten reports the request payload bytes sent so far.
func (c *Client) BytesWritten() int64 { return c.bytesWritten.Load() }

// roundTrip sends a request and decodes the status byte.
func (c *Client) roundTrip(req []byte) ([]byte, error) {
	body, _, err := c.roundTripInto(req, nil)
	return body, err
}

// roundTripInto is roundTrip with a caller-supplied receive buffer: the
// response lands in buf when it fits (the pooled-frame read path). It
// returns the response body — aliasing the returned frame buffer — and
// the frame buffer itself so the caller can park it for reuse.
func (c *Client) roundTripInto(req, buf []byte) (body, frameBuf []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := writeFrame(c.conn, req); err != nil {
		return nil, buf, err
	}
	c.bytesWritten.Add(int64(len(req)))
	resp, err := readFrameInto(c.conn, buf[:0:cap(buf)])
	if err != nil {
		return nil, buf, err
	}
	if len(resp) == 0 {
		return nil, resp, fmt.Errorf("dsp: empty response")
	}
	c.bytesRead.Add(int64(len(resp)))
	switch resp[0] {
	case statusOK:
		return resp[1:], resp, nil
	case statusErr:
		return nil, resp, ServerError(resp[1:])
	default:
		return nil, resp, fmt.Errorf("dsp: bad response status %d", resp[0])
	}
}

// PutDocument implements Store.
func (c *Client) PutDocument(container *docenc.Container) error {
	body, err := container.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(append([]byte{opPutDocument}, body...))
	return err
}

// Header implements Store.
func (c *Client) Header(docID string) (docenc.Header, error) {
	resp, err := c.roundTrip(appendString([]byte{opHeader}, docID))
	if err != nil {
		return docenc.Header{}, err
	}
	h, _, err := docenc.UnmarshalHeader(resp)
	return h, err
}

// ReadBlock implements Store.
func (c *Client) ReadBlock(docID string, idx int) ([]byte, error) {
	req := appendString([]byte{opReadBlock}, docID)
	req = binary.AppendUvarint(req, uint64(idx))
	return c.roundTrip(req)
}

// ReadBlocks implements BlockRangeReader: one round trip for a whole
// skip-index run instead of count request/response exchanges.
func (c *Client) ReadBlocks(docID string, start, count int) ([][]byte, error) {
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
	return parseBlockRun(resp, count, nil)
}

// readBlocksReq builds the opReadBlocks request frame.
func readBlocksReq(docID string, start, count int) []byte {
	req := appendString([]byte{opReadBlocks}, docID)
	req = binary.AppendUvarint(req, uint64(start))
	return binary.AppendUvarint(req, uint64(count))
}

// parseBlockRun decodes an opReadBlocks response body into dst. The
// returned slices alias resp.
func parseBlockRun(resp []byte, count int, dst [][]byte) ([][]byte, error) {
	r := &wireReader{data: resp}
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if n != uint64(count) {
		return nil, fmt.Errorf("dsp: batched read returned %d blocks, want %d", n, count)
	}
	if cap(dst) < int(n) {
		dst = make([][]byte, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		b := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		dst = append(dst, b)
	}
	return dst, nil
}

func errNegativeRange(start, count int) error {
	return fmt.Errorf("dsp: negative block range [%d,+%d)", start, count)
}

// CommitDelta implements DeltaCommitter: the whole delta in one frame,
// and the header the store holds afterwards in the reply.
func (c *Client) CommitDelta(d *docenc.DeltaUpdate) (docenc.Header, error) {
	resp, err := c.roundTrip(appendDelta([]byte{opCommitDelta}, d))
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
	req := binary.AppendUvarint([]byte{opBeginUpdate}, uint64(baseVersion))
	req = appendBytes(req, hb)
	resp, err := c.roundTrip(req)
	if err != nil {
		return 0, err
	}
	r := &wireReader{data: resp}
	token := r.uvarint()
	if r.err != nil {
		return 0, r.err
	}
	return token, nil
}

// PutBlocks implements DocUpdater: one staged run per round trip.
func (c *Client) PutBlocks(token uint64, start int, blocks [][]byte) error {
	if start < 0 {
		return fmt.Errorf("dsp: negative block offset %d", start)
	}
	req := binary.AppendUvarint([]byte{opPutBlocks}, token)
	req = binary.AppendUvarint(req, uint64(start))
	req = binary.AppendUvarint(req, uint64(len(blocks)))
	for _, b := range blocks {
		req = appendBytes(req, b)
	}
	_, err := c.roundTrip(req)
	return err
}

// CommitUpdate implements DocUpdater.
func (c *Client) CommitUpdate(token uint64) error {
	_, err := c.roundTrip(binary.AppendUvarint([]byte{opCommitUpdate}, token))
	return err
}

// AbortUpdate implements DocUpdater.
func (c *Client) AbortUpdate(token uint64) error {
	_, err := c.roundTrip(binary.AppendUvarint([]byte{opAbortUpdate}, token))
	return err
}

// PutRuleSet implements Store.
func (c *Client) PutRuleSet(docID, subject string, version uint32, sealed []byte) error {
	req := appendString([]byte{opPutRuleSet}, docID)
	req = appendString(req, subject)
	req = binary.AppendUvarint(req, uint64(version))
	req = appendBytes(req, sealed)
	_, err := c.roundTrip(req)
	return err
}

// RuleSet implements Store.
func (c *Client) RuleSet(docID, subject string) ([]byte, error) {
	req := appendString([]byte{opRuleSet}, docID)
	req = appendString(req, subject)
	return c.roundTrip(req)
}

// ListDocuments implements Store.
func (c *Client) ListDocuments() ([]string, error) {
	resp, err := c.roundTrip([]byte{opList})
	if err != nil {
		return nil, err
	}
	r := &wireReader{data: resp}
	out := make([]string, r.readUvarintBounded(1, maxFrame))
	for i := range out {
		out[i] = r.string()
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

var (
	_ Store            = (*Client)(nil)
	_ BlockRangeReader = (*Client)(nil)
	_ DocUpdater       = (*Client)(nil)
	_ DeltaCommitter   = (*Client)(nil)
)
