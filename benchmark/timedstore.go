package main

import (
	"sync/atomic"

	"repro/internal/docenc"
	"repro/internal/dsp"
)

// fullStore is what every store tier of the rig offers beyond
// dsp.Store: batched range reads and the block-level update handshake.
type fullStore interface {
	dsp.Store
	dsp.BlockRangeReader
	dsp.DocUpdater
}

// frameStore is a store that also serves batched reads into pooled
// frames (dsp.Client, dsp.Pool). proxy.Session looks for exactly this
// method to pick its in-place decrypt path.
type frameStore interface {
	fullStore
	ReadBlocksFrame(docID string, start, count int) (*dsp.BlockFrame, error)
}

// timedStore is a dsp.Store decorator that records a span around every
// call, so a traced pass can say how long a session spent waiting for
// the store and in how many round trips. It forwards the optional
// interfaces of the store it wraps — and only those — so the session
// takes the same code path with and without it.
type timedStore struct {
	inner fullStore
	tr    *tracer
	// trace and parent name the operation the single traced client is
	// running; the client sets them before the call and the session's
	// prefetch goroutine, started by that call, reads them.
	trace, parent int

	calls atomic.Int64
}

// timedFrameStore adds ReadBlocksFrame for stores that have it.
type timedFrameStore struct {
	*timedStore
	frames frameStore
}

// newTimedStore decorates inner, keeping its ReadBlocksFrame if any.
func newTimedStore(inner fullStore, tr *tracer) (dsp.Store, *timedStore) {
	ts := &timedStore{inner: inner, tr: tr}
	if fs, ok := inner.(frameStore); ok {
		return &timedFrameStore{timedStore: ts, frames: fs}, ts
	}
	return ts, ts
}

// under attributes the calls that follow to one operation's span.
func (s *timedStore) under(trace, parent int) { s.trace, s.parent = trace, parent }

func (s *timedStore) span(name string) func() {
	s.calls.Add(1)
	id := s.tr.begin(s.trace, s.parent, name)
	return func() { s.tr.end(id) }
}

func (s *timedStore) PutDocument(c *docenc.Container) error {
	defer s.span("dsp:PutDocument")()
	return s.inner.PutDocument(c)
}

func (s *timedStore) Header(docID string) (docenc.Header, error) {
	defer s.span("dsp:Header")()
	return s.inner.Header(docID)
}

func (s *timedStore) ReadBlock(docID string, idx int) ([]byte, error) {
	defer s.span("dsp:ReadBlock")()
	return s.inner.ReadBlock(docID, idx)
}

func (s *timedStore) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	defer s.span("dsp:ReadBlocks")()
	return s.inner.ReadBlocks(docID, start, count)
}

func (s *timedFrameStore) ReadBlocksFrame(docID string, start, count int) (*dsp.BlockFrame, error) {
	defer s.span("dsp:ReadBlocksFrame")()
	return s.frames.ReadBlocksFrame(docID, start, count)
}

func (s *timedStore) PutRuleSet(docID, subject string, version uint32, sealed []byte) error {
	defer s.span("dsp:PutRuleSet")()
	return s.inner.PutRuleSet(docID, subject, version, sealed)
}

func (s *timedStore) RuleSet(docID, subject string) ([]byte, error) {
	defer s.span("dsp:RuleSet")()
	return s.inner.RuleSet(docID, subject)
}

func (s *timedStore) ListDocuments() ([]string, error) {
	defer s.span("dsp:ListDocuments")()
	return s.inner.ListDocuments()
}

func (s *timedStore) BeginUpdate(h docenc.Header, baseVersion uint32) (uint64, error) {
	defer s.span("dsp:BeginUpdate")()
	return s.inner.BeginUpdate(h, baseVersion)
}

func (s *timedStore) PutBlocks(token uint64, start int, blocks [][]byte) error {
	defer s.span("dsp:PutBlocks")()
	return s.inner.PutBlocks(token, start, blocks)
}

func (s *timedStore) CommitUpdate(token uint64) error {
	defer s.span("dsp:CommitUpdate")()
	return s.inner.CommitUpdate(token)
}

func (s *timedStore) AbortUpdate(token uint64) error {
	defer s.span("dsp:AbortUpdate")()
	return s.inner.AbortUpdate(token)
}
