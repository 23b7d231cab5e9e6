package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/dsp"
	"repro/internal/gateway"
	"repro/internal/proxy"
	"repro/internal/secure"
)

// portalHot is the deployed query path: nproc wire clients, each asking
// gatewayd for the full authorized view of a random (subject, document)
// pair. The 0.6 MB corpus fits every cache, so the trusted tier does
// nearly all the work and the store nearly none.
type portalHot struct {
	corpus  *portalCorpus
	clients int
	// expected[doc][profile] is the oracle's view of version 1.
	expected [][]string

	rig     *rig
	readers []*portalReader
}

func newPortalHot(seed int64, sz sizes, clients int) (instance, error) {
	p := &portalHot{corpus: newPortalCorpus(seed, sz), clients: clients}
	var err error
	p.expected, err = p.corpus.expectedViews()
	return p, err
}

// expectedViews runs the oracle over every (document, profile) pair at
// the first version.
func (c *portalCorpus) expectedViews() ([][]string, error) {
	out := make([][]string, len(c.docIDs))
	for d := range c.docIDs {
		tree := c.tree(d)
		rules, err := oracleRules(portalProfiles, c.docIDs[d])
		if err != nil {
			return nil, err
		}
		out[d] = make([]string, len(rules))
		for p, rs := range rules {
			if out[d][p], err = view(tree, rs); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// publish uploads every document and grants every subject its profile
// on every document, over the wire as sdsctl would.
func (c *portalCorpus) publish(store dsp.Store) error {
	pub := &proxy.Publisher{Store: store}
	for d := range c.docIDs {
		if _, err := pub.PublishDocument(c.tree(d), c.encodeOptions(d)); err != nil {
			return fmt.Errorf("publishing %s: %w", c.docIDs[d], err)
		}
		key := c.encodeOptions(d).Key
		for s, subject := range c.subjects {
			rules, err := parseRules(c.profile(s), subject, c.docIDs[d])
			if err != nil {
				return err
			}
			if err := pub.GrantRules(key, rules); err != nil {
				return fmt.Errorf("granting %s on %s: %w", subject, c.docIDs[d], err)
			}
		}
	}
	return nil
}

// newPortalRig builds the full stack over dir and publishes the corpus.
func newPortalRig(dir string, c *portalCorpus, cfg rigConfig) (*rig, error) {
	r, err := newStoreTier(dir, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.startGateway(); err == nil {
		// The publisher shares the gateway's pool, like an sdsctl run
		// beside the daemon; going through the gateway-side cache's
		// backing pool keeps the cache's invalidation out of set-up.
		err = c.publish(r.pool)
	}
	if err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

// portalReader is one wire client: a connection with a session per
// subject, and a seed-determined stream of (subject, document) picks.
type portalReader struct {
	corpus   *portalCorpus
	conn     *gateway.Client
	sessions []*gateway.Session
	picks    *pairs
	// check judges a reply against the oracle, outside the timed span.
	check func(subject, doc int, res *gateway.QueryResult) error

	// retryFor is how long a query is sent again after a torn read before
	// the tear fails the operation (0 where nothing is written beside the
	// readers).
	retryFor time.Duration

	queries, respBytes, tornReads int64
}

// tornRead recognizes the integrity failure of a query whose header and
// blocks straddle a commit: the store serves no snapshots, so a session
// that read the header of one version and then blocks of another fails
// its MAC check, by design, and the caller asks again. The wire
// flattens errors to text, hence the match on the message.
func tornRead(err error) bool {
	return strings.Contains(err.Error(), secure.ErrIntegrity.Error())
}

func dialReader(addr string, c *portalCorpus, id int) (*portalReader, error) {
	conn, err := gateway.Dial(addr)
	if err != nil {
		return nil, err
	}
	r := &portalReader{corpus: c, conn: conn, picks: c.pairs(id)}
	for _, subject := range c.subjects {
		s, err := conn.Open(subject)
		if err != nil {
			_ = conn.Close()
			return nil, err
		}
		r.sessions = append(r.sessions, s)
	}
	return r, nil
}

// query runs one pull query for (subject, doc); the returned function
// judges the reply.
func (r *portalReader) query(subject, doc int) (int64, func() error, error) {
	res, err := r.sessions[subject].Query(r.corpus.docIDs[doc], "")
	if err != nil && r.retryFor > 0 {
		// The first retry is immediate, the usual tear being over by then;
		// the following ones back off, so that a tear which lasts as long as
		// a slow disk flush is waited out and not spun on.
		giveUp := time.Now().Add(r.retryFor)
		for pause := time.Duration(0); err != nil && tornRead(err) && time.Now().Before(giveUp); {
			r.tornReads++
			time.Sleep(pause)
			pause = min(2*pause+tornReadPause, 16*tornReadPause)
			res, err = r.sessions[subject].Query(r.corpus.docIDs[doc], "")
		}
	}
	if err != nil {
		return 0, nil, err
	}
	r.queries++
	r.respBytes += int64(len(res.XML))
	return int64(len(res.XML)), func() error { return r.check(subject, doc, res) }, nil
}

func (r *portalReader) client() *client {
	return &client{op: func() (int64, func() error, error) { return r.query(r.picks.next()) }}
}

// warmUp has the readers share one pass over every (subject, document)
// pair, so that sessions are provisioned and caches filled before the
// first timed operation.
func warmUp(readers []*portalReader) error {
	var wg sync.WaitGroup
	errs := make([]error, len(readers))
	for i, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for s := range r.corpus.subjects {
				for d := range r.corpus.docIDs {
					if n++; n%len(readers) != i {
						continue
					}
					_, verify, err := r.query(s, d)
					if err == nil {
						err = verify()
					}
					if err != nil {
						errs[i] = fmt.Errorf("warm-up query %s on %s: %w", r.corpus.subjects[s], r.corpus.docIDs[d], err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func closeReaders(readers []*portalReader) {
	for _, r := range readers {
		_ = r.conn.Close()
	}
}

// checkFirstVersion compares a reply with the oracle's view of the
// unedited corpus.
func (p *portalHot) checkFirstVersion(subject, doc int, res *gateway.QueryResult) error {
	if res.Version != 1 {
		return fmt.Errorf("%s served at version %d, published once", p.corpus.docIDs[doc], res.Version)
	}
	if res.XML != p.expected[doc][subject%len(portalProfiles)] {
		return fmt.Errorf("reply for %s on %s differs from the oracle's view",
			p.corpus.subjects[subject], p.corpus.docIDs[doc])
	}
	return nil
}

func (p *portalHot) setup(dir string) error {
	r, err := newPortalRig(dir, p.corpus, rigConfig{})
	if err != nil {
		return err
	}
	p.rig = r
	for i := 0; i < p.clients; i++ {
		rd, err := dialReader(r.gwAddr, p.corpus, i)
		if err != nil {
			return err
		}
		rd.check = p.checkFirstVersion
		p.readers = append(p.readers, rd)
	}
	return warmUp(p.readers)
}

func (p *portalHot) run(d time.Duration) (*window, error) {
	var cs []*client
	for _, r := range p.readers {
		cs = append(cs, r.client())
	}
	return runClients(cs, d), nil
}

func (p *portalHot) close() error {
	closeReaders(p.readers)
	p.readers = nil
	if p.rig == nil {
		return nil
	}
	err := p.rig.close()
	p.rig = nil
	return err
}
