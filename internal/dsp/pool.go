package dsp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/docenc"
)

// DefaultPoolSize is the connection count used when DialPool is given a
// size <= 0.
const DefaultPoolSize = 4

// Pool is a fixed-size pool of connections to one dspd server. It
// implements Store, so many goroutines can share one Pool and fan their
// requests over the pooled connections; each call borrows a connection
// for exactly one round trip.
//
// A connection that suffers a transport failure is dropped and redialed
// on next use, so a restarted dspd heals the pool lazily. Server-reported
// errors (ServerError) and a commit's moved base (ErrBaseMoved) leave the
// connection in service — the wire is still synchronized after them.
type Pool struct {
	addr string

	// free holds the pool's slots. A nil entry is a slot whose connection
	// died (or was never opened) and is dialed on demand.
	free chan *Client

	mu     sync.Mutex
	open   []*Client // every live client, for Close and byte accounting
	closed bool

	// retiredBytes / retiredWritten accumulate the counters of dropped
	// connections so BytesRead and BytesWritten stay monotonic across
	// redials.
	retiredBytes   atomic.Int64
	retiredWritten atomic.Int64
}

// DialPool connects size connections (<= 0: DefaultPoolSize) to a dspd
// server. The first dial failure aborts and closes the already-open
// connections.
func DialPool(addr string, size int) (*Pool, error) {
	if size <= 0 {
		size = DefaultPoolSize
	}
	p := &Pool{addr: addr, free: make(chan *Client, size)}
	for i := 0; i < size; i++ {
		c, err := Dial(addr)
		if err != nil {
			_ = p.Close()
			return nil, fmt.Errorf("dsp: pool connection %d/%d: %w", i+1, size, err)
		}
		p.track(c)
		p.free <- c
	}
	return p, nil
}

// track registers a live client; if the pool closed while the client was
// being dialed, it is closed instead and track reports false.
func (p *Pool) track(c *Client) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = c.Close()
		return false
	}
	p.open = append(p.open, c)
	p.mu.Unlock()
	return true
}

func (p *Pool) untrack(c *Client) {
	p.mu.Lock()
	found := false
	for i, o := range p.open {
		if o == c {
			p.open[i] = p.open[len(p.open)-1]
			p.open = p.open[:len(p.open)-1]
			found = true
			break
		}
	}
	// Credit the retired counter under the same lock that removed the
	// client from open, so a concurrent BytesRead never sees neither —
	// but only if this call did the removal: a client already retired by
	// Close has been credited there, and crediting it again would
	// double-count its bytes.
	if found {
		p.retiredBytes.Add(c.BytesRead())
		p.retiredWritten.Add(c.BytesWritten())
	}
	p.mu.Unlock()
	_ = c.Close()
}

// Size reports the pool's slot count.
func (p *Pool) Size() int { return cap(p.free) }

// BytesRead sums the response payload bytes received over the pool's
// connections, past and present.
func (p *Pool) BytesRead() int64 {
	total := p.retiredBytes.Load()
	p.mu.Lock()
	for _, c := range p.open {
		total += c.BytesRead()
	}
	p.mu.Unlock()
	return total
}

// BytesWritten sums the request payload bytes sent over the pool's
// connections, past and present.
func (p *Pool) BytesWritten() int64 {
	total := p.retiredWritten.Load()
	p.mu.Lock()
	for _, c := range p.open {
		total += c.BytesWritten()
	}
	p.mu.Unlock()
	return total
}

// Close closes every pooled connection. In-flight calls finish with
// transport errors; subsequent calls fail immediately.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	open := p.open
	p.open = nil
	// Retire the live counters so BytesRead stays monotonic across Close.
	for _, c := range open {
		p.retiredBytes.Add(c.BytesRead())
		p.retiredWritten.Add(c.BytesWritten())
	}
	p.mu.Unlock()
	for _, c := range open {
		_ = c.Close()
	}
	return nil
}

// withConn borrows a slot, dials it if needed, and runs one round trip.
func (p *Pool) withConn(f func(*Client) error) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return fmt.Errorf("dsp: pool is closed")
	}
	c := <-p.free
	if c == nil {
		p.mu.Lock()
		closed = p.closed
		p.mu.Unlock()
		if closed {
			p.free <- nil
			return fmt.Errorf("dsp: pool is closed")
		}
		var err error
		c, err = Dial(p.addr)
		if err != nil {
			p.free <- nil
			return err
		}
		if !p.track(c) {
			p.free <- nil
			return fmt.Errorf("dsp: pool is closed")
		}
	}
	err := f(c)
	var srvErr ServerError
	if err != nil && !errors.As(err, &srvErr) && !errors.Is(err, ErrBaseMoved) {
		// Transport failure: the request/response framing on this
		// connection can no longer be trusted. Drop it.
		p.untrack(c)
		p.free <- nil
		return err
	}
	p.free <- c
	return err
}

// PutDocument implements Store.
func (p *Pool) PutDocument(container *docenc.Container) error {
	return p.withConn(func(c *Client) error { return c.PutDocument(container) })
}

// Header implements Store.
func (p *Pool) Header(docID string) (h docenc.Header, err error) {
	err = p.withConn(func(c *Client) error {
		h, err = c.Header(docID)
		return err
	})
	return h, err
}

// ReadBlock implements Store.
func (p *Pool) ReadBlock(docID string, idx int) (b []byte, err error) {
	err = p.withConn(func(c *Client) error {
		b, err = c.ReadBlock(docID, idx)
		return err
	})
	return b, err
}

// ReadBlocks implements BlockRangeReader. Arguments are validated before
// borrowing a connection: a local validation error must not cost the
// pool a healthy connection.
func (p *Pool) ReadBlocks(docID string, start, count int) (bs [][]byte, err error) {
	if start < 0 || count < 0 {
		return nil, fmt.Errorf("dsp: negative block range [%d,+%d)", start, count)
	}
	err = p.withConn(func(c *Client) error {
		bs, err = c.ReadBlocks(docID, start, count)
		return err
	})
	return bs, err
}

// ReadBlocksFrame is the pooled-buffer batched read over a borrowed
// connection (see Client.ReadBlocksFrame). The frame is independent of
// the connection once the round trip completes, so releasing it after
// the slot went back to the pool is safe.
func (p *Pool) ReadBlocksFrame(docID string, start, count int) (f *BlockFrame, err error) {
	if start < 0 || count < 0 {
		return nil, fmt.Errorf("dsp: negative block range [%d,+%d)", start, count)
	}
	err = p.withConn(func(c *Client) error {
		f, err = c.ReadBlocksFrame(docID, start, count)
		return err
	})
	return f, err
}

// CommitDelta implements DeltaCommitter over one borrowed connection.
func (p *Pool) CommitDelta(d *docenc.DeltaUpdate) (h docenc.Header, err error) {
	err = p.withConn(func(c *Client) error {
		h, err = c.CommitDelta(d)
		return err
	})
	return h, err
}

// BeginUpdate implements DocUpdater. The update token is store-side
// state, not connection state, so each op of the handshake may travel
// over a different pooled connection.
func (p *Pool) BeginUpdate(h docenc.Header, baseVersion uint32) (token uint64, err error) {
	err = p.withConn(func(c *Client) error {
		token, err = c.BeginUpdate(h, baseVersion)
		return err
	})
	return token, err
}

// PutBlocks implements DocUpdater.
func (p *Pool) PutBlocks(token uint64, start int, blocks [][]byte) error {
	if start < 0 {
		return fmt.Errorf("dsp: negative block offset %d", start)
	}
	return p.withConn(func(c *Client) error { return c.PutBlocks(token, start, blocks) })
}

// CommitUpdate implements DocUpdater.
func (p *Pool) CommitUpdate(token uint64) error {
	return p.withConn(func(c *Client) error { return c.CommitUpdate(token) })
}

// AbortUpdate implements DocUpdater.
func (p *Pool) AbortUpdate(token uint64) error {
	return p.withConn(func(c *Client) error { return c.AbortUpdate(token) })
}

// PutRuleSet implements Store.
func (p *Pool) PutRuleSet(docID, subject string, version uint32, sealed []byte) error {
	return p.withConn(func(c *Client) error { return c.PutRuleSet(docID, subject, version, sealed) })
}

// RuleSet implements Store.
func (p *Pool) RuleSet(docID, subject string) (sealed []byte, err error) {
	err = p.withConn(func(c *Client) error {
		sealed, err = c.RuleSet(docID, subject)
		return err
	})
	return sealed, err
}

// ListDocuments implements Store.
func (p *Pool) ListDocuments() (ids []string, err error) {
	err = p.withConn(func(c *Client) error {
		ids, err = c.ListDocuments()
		return err
	})
	return ids, err
}

var (
	_ Store          = (*Pool)(nil)
	_ DocUpdater     = (*Pool)(nil)
	_ DeltaCommitter = (*Pool)(nil)
)
