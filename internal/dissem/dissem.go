// Package dissem implements the push scenario of the demonstration:
// "selective dissemination of multimedia streams through unsecured
// channels" (Section 3). A publisher broadcasts the encrypted document's
// blocks in order; every subscriber runs its own SOE which filters the
// stream against the subscriber's rules — the same engine as pull mode,
// with one inversion: there is no back-channel, so skips cannot reduce
// what is *broadcast*, but each subscriber's terminal forwards to its
// card only the blocks the card asks for, so skips still save the
// card-link transfer and the decryption that dominate the target
// hardware. A re-published version is broadcast like any other, and
// every subscriber's card evaluates it under the rules and query it holds
// at that moment: no reception is ever served without the card.
package dissem

import (
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
	Name string
	Card *card.Card
	// Query optionally narrows the subscription (a standing query).
	Query *xpath.Path

	opts        soe.Options
	sess        *soe.Session
	col         *proxy.Collector
	view        core.View // each reception's view, copied out into its Tree
	meterBefore card.Meter

	// offered / forwarded measure the terminal-side filter for the
	// current stream; finish copies them into the Reception.
	offered, forwarded int
}

// NewSubscriber wraps a provisioned card (key and rule set installed).
func NewSubscriber(name string, c *card.Card, query *xpath.Path, opts soe.Options) *Subscriber {
	return &Subscriber{Name: name, Card: c, Query: query, opts: opts}
}

// begin opens the card session when the stream header arrives: the first
// reception opens it, every later one re-arms it.
func (s *Subscriber) begin(subject, docID string, hdrBytes []byte) error {
	s.meterBefore = s.Card.Meter
	if s.sess == nil {
		sess, err := soe.NewSession(s.Card, docID, subject, s.Query, s.opts)
		if err != nil {
			return err
		}
		col := proxy.NewCollector()
		if err := sess.DeliverTo(col); err != nil {
			return err
		}
		s.sess, s.col = sess, col
	} else if err := s.sess.Restart(docID, subject, s.Query); err != nil {
		return err
	}
	if err := s.sess.LoadHeader(hdrBytes); err != nil {
		return err
	}
	s.col.Reset()
	s.offered, s.forwarded = 0, 0
	return nil
}

// offer hands a broadcast block to the subscriber. The terminal forwards
// it to the card only if the card's wanted offset lies inside it.
func (s *Subscriber) offer(idx int, blk []byte) error {
	s.offered++
	if s.sess.Done() {
		return nil
	}
	want := s.sess.NeedBlock()
	if want < 0 || want != idx {
		return nil // skipped or not yet wanted: dropped at the terminal
	}
	s.forwarded++
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
		BlocksOffered:   s.offered,
		BlocksForwarded: s.forwarded,
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
	if err := s.begin(subject, container.Header.DocID, hdrBytes); err != nil {
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
	return rec, nil
}
