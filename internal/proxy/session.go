package proxy

import (
	"fmt"
	"sync"

	"repro/internal/card"
	"repro/internal/dsp"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/xpath"
)

// Session is a poolable, restartable pull-session object: one card, a
// store lease, and the pipeline configuration, packaged so that a
// gateway can check the whole bundle out of a pool, run a query, and
// recycle it with the expensive state intact — the installed document
// keys, the card's amortized cipher contexts, and the sealed rule sets
// all survive across queries.
//
// A Session models the card's single-threaded applet: exactly one query
// runs at a time (a concurrent Query refuses instead of corrupting card
// state), but the object itself is long-lived and reusable. Every
// pooled resource a query borrows — client block frames, prepared-run
// plaintext buffers, mmap pins riding the store responses — is released
// on every drop path before Query returns, so Reset and Close never
// have dangling frames to chase: they only guard the lifecycle.
//
// Terminal remains the one-shot convenience facade over this type.
type Session struct {
	store    dsp.Store
	card     *card.Card
	opts     soe.Options
	prefetch int

	mu      sync.Mutex
	busy    bool
	closed  bool
	queries int64

	// col is the sink every query of this session assembles its view in,
	// sess the card session every query is evaluated by — told, when it is
	// built, to deliver to col — and pipe the plumbing of the prefetching
	// pipeline; all are owned by the query that holds busy. Keeping them
	// keeps the arena, the card session's buffers and slabs, its prepared
	// runs and the channels, all sized by the queries before.
	col  *Collector
	sess *soe.Session
	pipe *pipeline
}

// NewSession builds a reusable session over a store lease and a card.
// prefetch > 0 selects the two-stage prefetching pipeline (see
// Terminal.Prefetch); 0 keeps the serial pull loop.
func NewSession(store dsp.Store, c *card.Card, opts soe.Options, prefetch int) *Session {
	return &Session{store: store, card: c, opts: opts, prefetch: prefetch}
}

// Card exposes the session's card (provisioning, meters).
func (s *Session) Card() *card.Card { return s.card }

// Store exposes the session's store lease.
func (s *Session) Store() dsp.Store { return s.store }

// Queries reports how many queries this session has served since it was
// built — the pool's reuse measure.
func (s *Session) Queries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

// acquire takes single-session ownership for one query.
func (s *Session) acquire() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("proxy: session is closed")
	}
	if s.busy {
		return fmt.Errorf("proxy: session is busy (single-session ownership: one query at a time)")
	}
	s.busy = true
	return nil
}

func (s *Session) release() {
	s.mu.Lock()
	s.busy = false
	s.queries++
	s.mu.Unlock()
}

// Provision installs a document key on the session's card and warms the
// card's amortized cipher state (AES schedule + precomputed HMAC pads),
// so every query this session runs against docID shares one context.
func (s *Session) Provision(docID string, key secure.DocKey) error {
	if err := s.card.PutKey(docID, key); err != nil {
		return err
	}
	_, err := s.card.DecryptContext(docID)
	return err
}

// InstallRules pulls the subject's sealed rule set from the store and
// installs it on the card. The card's version monotonicity rejects
// rollbacks, so re-installing is always safe.
func (s *Session) InstallRules(subject, docID string) error {
	sealed, err := s.store.RuleSet(docID, subject)
	if err != nil {
		return err
	}
	return s.card.PutSealedRuleSet(docID, subject, sealed)
}

// RuleVersion reports the rule-set version installed on this session's
// card for (subject, doc), -1 when none is installed.
func (s *Session) RuleVersion(subject, docID string) int64 {
	return s.card.RuleVersion(subject, docID)
}

// Reset returns the session to a reusable state between checkouts. Card
// provisioning is deliberately kept (that is what makes pooling pay);
// per-query state is stack-scoped and already torn down when Query
// returns, so Reset's job is the lifecycle check: a session still
// running a query must not be recycled.
func (s *Session) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy {
		return fmt.Errorf("proxy: resetting a session with a query in flight")
	}
	return nil
}

// Close retires the session: new queries refuse; a query already in
// flight finishes normally (its drop paths release every pooled frame
// and pin it borrowed).
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Query runs a pull request: fetch, decrypt-on-card, filter, reassemble.
// query is an XP{[],*,//} expression, or "" for the full authorized view.
func (s *Session) Query(subject, docID, query string) (*Result, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()

	var q *xpath.Path
	if query != "" {
		var err error
		q, err = xpath.Parse(query)
		if err != nil {
			return nil, err
		}
	}

	meterBefore := s.card.Meter

	sess, err := s.cardSession(docID, subject, q)
	if err != nil {
		return nil, err
	}
	defer sess.Abort()

	header, err := s.store.Header(docID)
	if err != nil {
		return nil, err
	}
	hdrBytes, err := header.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if err := sess.LoadHeader(hdrBytes); err != nil {
		return nil, err
	}

	col := s.col
	col.Reset()
	stats := ResultStats{BlocksTotal: header.NumBlocks()}
	if s.prefetch > 0 {
		err = s.runPipelined(sess, docID, header.NumBlocks(), int(header.BlockPlain), &stats)
	} else {
		err = s.runSerial(sess, docID, &stats)
	}
	if err != nil {
		return nil, err
	}
	if !sess.Done() {
		return nil, fmt.Errorf("proxy: stream ended but session is not done")
	}
	view, err := col.View()
	if err != nil {
		return nil, err
	}

	stats.Session = sess.Stats()
	stats.Meter = s.card.Meter.Sub(meterBefore)
	stats.Time = stats.Meter.Price(s.card.Profile)
	stats.PendingEvents, stats.PendingBytes = col.PendingLoad()
	return &Result{view: view, Version: header.Version, Stats: stats}, nil
}

// cardSession opens the card session of one query: the session's own,
// re-armed, once a first query has built it and bound it to the
// session's collector.
func (s *Session) cardSession(docID, subject string, q *xpath.Path) (*soe.Session, error) {
	if s.sess != nil {
		return s.sess, s.sess.Restart(docID, subject, q)
	}
	sess, err := soe.NewSession(s.card, docID, subject, q, s.opts)
	if err != nil {
		return nil, err
	}
	col := NewCollector()
	if err := sess.DeliverTo(col); err != nil {
		return nil, err
	}
	s.sess, s.col = sess, col
	return sess, nil
}

// runSerial is the historical pull loop: one store round trip per block
// the card demands, nothing speculative.
func (s *Session) runSerial(sess *soe.Session, docID string, stats *ResultStats) error {
	for {
		idx := sess.NeedBlock()
		if idx < 0 {
			return nil
		}
		blk, err := s.store.ReadBlock(docID, idx)
		if err != nil {
			return err
		}
		stats.BlocksFetched++
		stats.BytesFetched += int64(len(blk))
		if _, err := sess.Feed(idx, blk); err != nil {
			return err
		}
	}
}
