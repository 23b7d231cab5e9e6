// Package dissem implements the push scenario of the demonstration:
// "selective dissemination of multimedia streams through unsecured
// channels" (Section 3). A publisher broadcasts the encrypted document's
// blocks in order; every subscriber runs its own SOE which filters the
// stream against the subscriber's rules — the same engine as pull mode,
// with one inversion: there is no back-channel, so skips cannot reduce
// what is *broadcast*, but each subscriber's terminal forwards to its
// card only the blocks the card asks for, so skips still save the
// card-link transfer and the decryption that dominate the target
// hardware. When a document is re-published as a block-level delta,
// DeltaBroadcast pushes only the changed blocks to the subscriber
// fleet.
package dissem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/docenc"
	"repro/internal/proxy"
	"repro/internal/soe"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// Subscriber is one receiving device: a provisioned card plus its
// terminal-side collector, which the card session delivers to, and the
// view the collector finishes into. All three stand from one stream to
// the next, re-armed at each header, so a standing subscriber receives in
// the memory its earlier receptions grew.
type Subscriber struct {
	Name    string
	Card    *card.Card
	Options soe.Options
	// Query optionally narrows the subscription (a standing query).
	Query *xpath.Path

	sess        *soe.Session
	sessOptions soe.Options // what sess was opened with
	col         *proxy.Collector
	view        core.View // each reception's view, copied out into its Tree
	meterBefore card.Meter

	// BlocksOffered / BlocksForwarded measure the terminal-side filter
	// for the current (or last finished) stream.
	BlocksOffered   int
	BlocksForwarded int

	// Retained skip state of the last completed stream: which version it
	// was, which blocks the card actually consumed, and what it
	// delivered. A DeltaBroadcast whose changed set misses every
	// consumed block can reuse the delivery outright — the card would
	// provably produce the same view.
	lastVersion   uint32
	lastGeometry  [2]uint64 // BlockPlain, PayloadLen
	lastForwarded []bool
	lastReception *Reception
}

// NewSubscriber wraps a provisioned card (key and rule set installed).
func NewSubscriber(name string, c *card.Card, query *xpath.Path, opts soe.Options) *Subscriber {
	return &Subscriber{Name: name, Card: c, Options: opts, Query: query}
}

// begin opens the card session when the stream header arrives.
func (s *Subscriber) begin(subject, docID string, hdrBytes []byte, numBlocks int) error {
	s.meterBefore = s.Card.Meter
	if s.sess != nil && s.sessOptions == s.Options {
		if err := s.sess.Restart(docID, subject, s.Query); err != nil {
			return err
		}
	} else {
		sess, err := soe.NewSession(s.Card, docID, subject, s.Query, s.Options)
		if err != nil {
			return err
		}
		if s.col == nil {
			s.col = proxy.NewCollector()
		}
		if err := sess.DeliverTo(s.col); err != nil {
			return err
		}
		s.sess, s.sessOptions = sess, s.Options
	}
	if err := s.sess.LoadHeader(hdrBytes); err != nil {
		return err
	}
	s.col.Reset()
	s.BlocksOffered, s.BlocksForwarded = 0, 0
	s.lastForwarded = append(s.lastForwarded[:0], make([]bool, numBlocks)...)
	s.lastReception = nil
	return nil
}

// offer hands a broadcast block to the subscriber. The terminal forwards
// it to the card only if the card's wanted offset lies inside it.
func (s *Subscriber) offer(idx int, blk []byte) error {
	s.BlocksOffered++
	if s.sess.Done() {
		return nil
	}
	want := s.sess.NeedBlock()
	if want < 0 || want != idx {
		return nil // skipped or not yet wanted: dropped at the terminal
	}
	s.BlocksForwarded++
	if idx < len(s.lastForwarded) {
		s.lastForwarded[idx] = true
	}
	_, err := s.sess.Feed(idx, blk)
	return err
}

// Reception is a subscriber's outcome.
type Reception struct {
	Subscriber string
	// Tree is the filtered stream content delivered to the application.
	Tree *xmlstream.Node
	// BlocksOffered / BlocksForwarded: broadcast size vs card traffic.
	BlocksOffered   int
	BlocksForwarded int
	// Meter is the card work spent on this stream.
	Meter card.Meter
	// Time prices the meter under the subscriber's card profile.
	Time card.TimeBreakdown
	// Session exposes evaluator counters (skips, RAM peak).
	Session soe.Stats
}

// finish closes the session and assembles the delivered content
// (receive attributes errors to the subscriber).
func (s *Subscriber) finish() (*Reception, error) {
	if !s.sess.Done() {
		return nil, fmt.Errorf("stream ended but the session is not done")
	}
	view, err := s.col.ViewInto(&s.view)
	if err != nil {
		return nil, err
	}
	r := &Reception{
		Subscriber:      s.Name,
		Tree:            view.Tree(),
		BlocksOffered:   s.BlocksOffered,
		BlocksForwarded: s.BlocksForwarded,
		Session:         s.sess.Stats(),
	}
	r.Meter = s.Card.Meter.Sub(s.meterBefore)
	r.Time = r.Meter.Price(s.Card.Profile)
	return r, nil
}

// Broadcast pushes one encrypted container to a set of subscribers, in
// block order, with no back-channel — the "unsecured channel" of the
// demo: any number of devices may listen; only provisioned cards can
// decrypt, and each delivers only its subject's authorized view.
//
// Subscribers are independent devices, so they are served concurrently:
// each runs its own session over the shared block sequence on its own
// goroutine (bounded by GOMAXPROCS), which is what lets one publisher
// feed a large audience at the speed of the slowest card rather than
// the sum of all of them.
func Broadcast(container *docenc.Container, subject string, subs []*Subscriber) ([]*Reception, error) {
	return broadcast(container, subs, func(*Subscriber) (string, error) { return subject, nil })
}

// BroadcastPerSubject runs Broadcast with per-subscriber subjects (each
// card filters under its own identity).
func BroadcastPerSubject(container *docenc.Container, subjects map[string]string, subs []*Subscriber) ([]*Reception, error) {
	return broadcast(container, subs, func(s *Subscriber) (string, error) {
		subject, ok := subjects[s.Name]
		if !ok {
			return "", fmt.Errorf("dissem: no subject for subscriber %s", s.Name)
		}
		return subject, nil
	})
}

// broadcast is the shared implementation: subjectFor picks each
// subscriber's filtering identity. The first subscriber failure (carrying
// that subscriber's name) cancels the broadcast: subscribers not yet
// started are never started, and in-flight ones stop at the next block.
func broadcast(container *docenc.Container, subs []*Subscriber, subjectFor func(*Subscriber) (string, error)) ([]*Reception, error) {
	hdrBytes, err := container.Header.MarshalBinary()
	if err != nil {
		return nil, err
	}

	out := make([]*Reception, len(subs))
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	// failed is firstErr != nil for the workers, which ask before every
	// block and must not queue on a lock to do it.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	cancelled := failed.Load
	for i, s := range subs {
		wg.Add(1)
		go func(i int, s *Subscriber) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cancelled() {
				return // the broadcast already failed: spawn no new work
			}
			rec, err := s.receive(container, hdrBytes, subjectFor, cancelled)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
					failed.Store(true)
				}
				mu.Unlock()
				return
			}
			out[i] = rec
		}(i, s)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// errCancelled marks a reception abandoned because another subscriber
// already failed the broadcast; it never surfaces (the first error does).
var errCancelled = fmt.Errorf("dissem: broadcast cancelled")

// receive drives one subscriber through a whole broadcast: session
// start, the block sequence in order, assembly. Every error is
// attributed to the subscriber by name.
func (s *Subscriber) receive(container *docenc.Container, hdrBytes []byte, subjectFor func(*Subscriber) (string, error), cancelled func() bool) (*Reception, error) {
	subject, err := subjectFor(s)
	if err != nil {
		return nil, err
	}
	if err := s.begin(subject, container.Header.DocID, hdrBytes, len(container.Blocks)); err != nil {
		return nil, fmt.Errorf("dissem: subscriber %s: %w", s.Name, err)
	}
	for idx, blk := range container.Blocks {
		if cancelled != nil && cancelled() {
			s.sess.Abort()
			return nil, errCancelled
		}
		if err := s.offer(idx, blk); err != nil {
			return nil, fmt.Errorf("dissem: subscriber %s at block %d: %w", s.Name, idx, err)
		}
	}
	rec, err := s.finish()
	if err != nil {
		return nil, fmt.Errorf("dissem: subscriber %s: %w", s.Name, err)
	}
	s.lastVersion = container.Header.Version
	s.lastGeometry = [2]uint64{uint64(container.Header.BlockPlain), container.Header.PayloadLen}
	s.lastReception = rec
	return rec, nil
}

// DeltaStats summarizes a delta dissemination round.
type DeltaStats struct {
	// BlocksChanged / BlocksTotal: the channel payload shrinkage. The
	// publisher pushes only the changed blocks onto the (shared)
	// channel; every other block a re-running subscriber consumes comes
	// from its terminal's retained copy of the previous stream, never
	// from the channel.
	BlocksChanged int
	BlocksTotal   int
	// Rerun counts subscribers whose retained skip state intersected the
	// delta (their card had consumed at least one changed block, so
	// their view may have moved and was re-derived).
	Rerun int
	// Reused counts subscribers served from their retained view: every
	// block their card consumed is bit-identical across versions, so the
	// delivered view provably cannot have changed.
	Reused int
}

// DeltaBroadcast pushes a new version of a previously broadcast document
// to subscribers that hold the old one. The channel carries only the
// changed blocks (derived from the containers' stored blocks —
// unchanged blocks keep their old ciphertext under the delta re-publish
// scheme, so the sets are byte-comparable); each re-running subscriber's
// terminal splices them into its retained copy of the old stream. A
// subscriber whose card consumed no changed block keeps its previous
// delivery without touching the card at all.
//
// In this in-process harness the splice is modeled, not transported:
// re-runs are fed from the new container, whose unchanged blocks are
// byte-identical to the retention they stand in for, so card behavior
// and receptions are exactly those of a spliced stream while
// DeltaStats.BlocksChanged accounts what a real channel would carry.
func DeltaBroadcast(old, new *docenc.Container, subject string, subs []*Subscriber) ([]*Reception, *DeltaStats, error) {
	if old.Header.DocID != new.Header.DocID {
		return nil, nil, fmt.Errorf("dissem: delta between different documents %q and %q",
			old.Header.DocID, new.Header.DocID)
	}
	changed := make([]bool, len(new.Blocks))
	nChanged := 0
	for i := range new.Blocks {
		if i >= len(old.Blocks) || !bytes.Equal(old.Blocks[i], new.Blocks[i]) {
			changed[i] = true
			nChanged++
		}
	}
	stats := &DeltaStats{BlocksChanged: nChanged, BlocksTotal: len(new.Blocks)}
	sameGeometry := old.Header.BlockPlain == new.Header.BlockPlain &&
		old.Header.PayloadLen == new.Header.PayloadLen

	out := make([]*Reception, len(subs))
	var rerun []*Subscriber
	var rerunIdx []int
	for i, s := range subs {
		if sameGeometry && s.reusable(old.Header, changed) {
			out[i] = s.lastReception
			stats.Reused++
			continue
		}
		rerun = append(rerun, s)
		rerunIdx = append(rerunIdx, i)
		stats.Rerun++
	}
	if len(rerun) > 0 {
		recs, err := Broadcast(new, subject, rerun)
		if err != nil {
			return nil, nil, err
		}
		for j, rec := range recs {
			out[rerunIdx[j]] = rec
		}
	}
	return out, stats, nil
}

// reusable reports whether the subscriber's retained view of the old
// version is provably identical under the new one: it completed the old
// stream and none of the blocks its card consumed changed. (The blocks
// it skipped were never decrypted, so their generations are
// irrelevant to what was delivered.)
func (s *Subscriber) reusable(oldHeader docenc.Header, changed []bool) bool {
	if s.lastReception == nil || s.lastVersion != oldHeader.Version ||
		s.lastGeometry != [2]uint64{uint64(oldHeader.BlockPlain), oldHeader.PayloadLen} {
		return false
	}
	for idx, fed := range s.lastForwarded {
		if fed && idx < len(changed) && changed[idx] {
			return false
		}
	}
	return true
}
