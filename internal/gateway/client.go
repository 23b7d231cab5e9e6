package gateway

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/wire"
)

// Client talks to a gatewayd server over one connection. Any number of
// Sessions may be open on it at once and used from different goroutines,
// but one Client carries one request at a time: each round trip holds the
// client's lock from its write until its reply is read, so the calls of
// Sessions sharing a Client are serialized. Callers that want their
// queries to run concurrently — the fleet runs them up to its pool
// bounds — give each goroutine its own Client.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	fc   *wire.FrameConn
	// recv is the reusable receive buffer; responses are parsed into
	// owned values under mu before the next round trip reuses it.
	recv []byte
}

// Dial connects to a gatewayd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, fc: wire.NewFrameConn(conn, maxFrame)}, nil
}

// Close terminates the connection; open sessions die with it.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip runs one exchange and hands the response body to parse
// while the connection lock is still held — the body aliases the
// reusable receive buffer, so parse must copy out what it keeps. req is
// a wire build buffer; it goes back to the pool.
func (c *Client) roundTrip(req []byte, parse func(body []byte) error) error {
	defer wire.PutBuf(req)
	c.mu.Lock()
	defer c.mu.Unlock()
	body, frame, err := c.fc.RoundTrip(req, c.recv, serverError)
	if frame != nil {
		c.recv = frame
	}
	if err == nil && parse != nil {
		err = parse(body)
	}
	return err
}

// Session is one subject binding on the wire. The heavyweight state it
// stands for (card, keys, rules, pipeline) is pooled server-side per
// subject, so opening and closing sessions is cheap by design.
type Session struct {
	c       *Client
	id      uint64
	subject string
}

// Open binds a new wire session to subject.
func (c *Client) Open(subject string) (*Session, error) {
	var id uint64
	err := c.roundTrip(wire.AppendString(append(wire.GetBuf(), opOpen), subject), func(body []byte) error {
		r := wire.NewReader(body)
		id = r.Uvarint()
		return r.Err()
	})
	if err != nil {
		return nil, err
	}
	return &Session{c: c, id: id, subject: subject}, nil
}

// Subject reports the subject this session is bound to.
func (s *Session) Subject() string { return s.subject }

// QueryResult is one pull query's outcome over the wire.
type QueryResult struct {
	// XML is the authorized view ("" when nothing is visible).
	XML string
	// Version is the document version the query was served from.
	Version uint32
	// BlocksFetched / BlocksWasted are the transfer counters of the
	// server-side session that ran the query.
	BlocksFetched int
	BlocksWasted  int
}

// Query runs one pull query. query is an XP{[],*,//} expression, or ""
// for the full authorized view.
func (s *Session) Query(docID, query string) (*QueryResult, error) {
	req := binary.AppendUvarint(append(wire.GetBuf(), opQuery), s.id)
	req = wire.AppendString(req, docID)
	req = wire.AppendString(req, query)
	res := &QueryResult{}
	err := s.c.roundTrip(req, func(body []byte) error {
		r := wire.NewReader(body)
		version := r.Uvarint()
		fetched := r.Uvarint()
		wasted := r.Uvarint()
		xml := r.Rest()
		if r.Err() != nil {
			return r.Err()
		}
		res.Version = uint32(version)
		res.BlocksFetched = int(fetched)
		res.BlocksWasted = int(wasted)
		res.XML = string(xml) // copy out: body aliases the recv buffer
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Close releases the wire session; the subject's pooled cards stay warm
// server-side.
func (s *Session) Close() error {
	return s.c.roundTrip(binary.AppendUvarint(append(wire.GetBuf(), opClose), s.id), nil)
}

// Stats fetches the daemon's observability snapshot.
func (c *Client) Stats() (*Snapshot, error) {
	var snap Snapshot
	err := c.roundTrip(append(wire.GetBuf(), opStats), func(body []byte) error {
		return json.Unmarshal(body, &snap)
	})
	if err != nil {
		return nil, err
	}
	return &snap, nil
}
