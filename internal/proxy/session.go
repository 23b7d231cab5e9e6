package proxy

import (
	"fmt"
	"sync"

	"repro/internal/card"
	"repro/internal/docenc"
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
// A Session keeps its rules current itself: a query that fetches a
// header newer than the version the rules were installed for re-installs
// them before the card evaluates anything, so rights that changed with a
// re-publication govern the first query that sees it, and a store that
// withholds the new rule set gets an error, not a view.
//
// A Session models the card's single-threaded applet: exactly one query
// runs at a time (a concurrent Query refuses instead of corrupting card
// state), but the object itself is long-lived and reusable. Every
// pooled resource a query borrows — client block frames, prepared-run
// plaintext buffers, mmap pins riding the store responses — is released
// on every drop path before Query returns, so Reset and Close never
// have dangling frames to chase: they only guard the lifecycle.
//
// A reader builds one Session per card, provisions it, queries through
// it as often as it likes and closes it when done; the fleet gateway
// pools them per subject.
type Session struct {
	store    dsp.Store
	card     *card.Card
	opts     soe.Options
	prefetch int

	mu     sync.Mutex
	busy   bool
	closed bool

	// col is the sink every query of this session assembles its view in,
	// sess the card session every query is evaluated by — told, when it is
	// built, to deliver to col — and pipe the plumbing of the prefetching
	// pipeline; all are owned by the query that holds busy. Keeping them
	// keeps the arena, the card session's buffers and slabs, its prepared
	// runs and the channels, all sized by the queries before.
	col  *Collector
	sess *soe.Session
	pipe *pipeline
	// hdrBuf holds the header a query hands the card.
	hdrBuf []byte
	// served holds, per (subject, document), the header version the
	// card's rules are current for.
	served map[servedKey]uint32
}

type servedKey struct{ subject, docID string }

// NewSession builds a reusable session over a store lease and a card;
// opts passes through to the SOE session (ablation switches). prefetch
// > 0 selects the two-stage prefetching pipeline, whose first run is
// prefetch blocks (see pipeline.go); speculative blocks the card never
// asks for are counted in ResultStats.BlocksWasted. 0 keeps the serial
// one-block-per-round-trip loop. The caller provisions the card
// (Provision, InstallRules) before a first query of a document.
func NewSession(store dsp.Store, c *card.Card, opts soe.Options, prefetch int) *Session {
	return &Session{store: store, card: c, opts: opts, prefetch: prefetch, served: make(map[servedKey]uint32)}
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
// rollbacks, so re-installing is always safe. The header read before
// the fetch dates the rules: a query of a newer one refreshes them.
func (s *Session) InstallRules(subject, docID string) error {
	if err := s.acquire(); err != nil {
		return err
	}
	defer s.release()
	header, err := s.store.Header(docID)
	if err != nil {
		return err
	}
	if err := s.installRuleSet(subject, docID); err != nil {
		return err
	}
	s.served[servedKey{subject, docID}] = header.Version
	return nil
}

func (s *Session) installRuleSet(subject, docID string) error {
	sealed, err := s.store.RuleSet(docID, subject)
	if err != nil {
		return err
	}
	return s.card.PutSealedRuleSet(docID, subject, sealed)
}

// refreshRules re-installs the rules, fetched after header and so at
// least as new, and returns the header the query runs: fetched again, so
// that a commit landing during the refresh gets one more refresh instead
// of tearing the query's block reads.
func (s *Session) refreshRules(subject, docID string, header docenc.Header) (docenc.Header, error) {
	if err := s.installRuleSet(subject, docID); err != nil {
		return header, err
	}
	next, err := s.store.Header(docID)
	if err != nil || next.Version <= header.Version {
		return header, err
	}
	return next, s.installRuleSet(subject, docID)
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
//
// A rule refresh (see Session) is reported in ResultStats.RulesRefreshed
// and, like any provisioning, charged to the card's meter but not to
// ResultStats.Meter.
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

	header, err := s.store.Header(docID)
	if err != nil {
		return nil, err
	}
	key := servedKey{subject, docID}
	last, seen := s.served[key]
	refresh := seen && header.Version > last
	if refresh { // rights may move with the document (Section 5's update model)
		if header, err = s.refreshRules(subject, docID, header); err != nil {
			return nil, fmt.Errorf("proxy: refreshing %q's rules for version %d of %q: %w", subject, header.Version, docID, err)
		}
	}

	meterBefore := s.card.Meter

	sess, err := s.cardSession(docID, subject, q)
	if err != nil {
		return nil, err
	}
	defer sess.Abort()

	// The card authenticates the header's bytes as the store sent them,
	// framed in the session's buffer.
	s.hdrBuf, _ = header.AppendBinary(s.hdrBuf[:0])
	if err := sess.LoadHeader(s.hdrBuf); err != nil {
		return nil, err
	}
	// A query moves the record only to an authenticated version.
	if !seen || refresh {
		s.served[key] = header.Version
	}

	col := s.col
	col.Reset()
	stats := ResultStats{BlocksTotal: header.NumBlocks(), RulesRefreshed: refresh}
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
	res := results.Get().(*Result)
	if res.view, err = col.ViewInto(&res.own); err != nil {
		res.Release()
		return nil, err
	}

	stats.Session = sess.Stats()
	stats.Meter = s.card.Meter.Sub(meterBefore)
	stats.Time = stats.Meter.Price(s.card.Profile)
	stats.PendingEvents, stats.PendingBytes = col.PendingLoad()
	res.Version, res.Stats = header.Version, stats
	return res, nil
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
