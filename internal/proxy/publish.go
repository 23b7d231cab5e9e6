package proxy

import (
	"container/list"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/secure"
	"repro/internal/xmlstream"
)

// Publisher is the document-owner side: it encodes documents and seals
// rule sets for the DSP. Three publish shapes:
//
//   - PublishDocument: the historical buffered one-shot — encode the
//     whole container in memory, upload it in one PutDocument.
//   - PublishStream: the io-driven path — the streaming encoder hands
//     blocks to the store's update handshake as they are produced, so
//     memory stays bounded regardless of document size.
//   - Republish: the delta path — encode the new tree as the successor
//     of the stored version and commit only the changed block runs, in
//     one frame, atomically, against the version it was diffed from.
//
// A Publisher that lives across re-publications keeps, under a fixed
// byte bound, the diff base of each document it re-published (see
// Republish); the zero value with a Store is ready to use, and it is
// safe for concurrent use.
type Publisher struct {
	Store dsp.Store

	mu       sync.Mutex
	bases    map[string]*list.Element // of *diffBase, by document
	lru      list.List                // most recently used first
	retained int                      // bytes, Σ size() over bases
}

// streamBatchBlocks bounds one PutBlocks round trip of the streaming
// publish path.
const streamBatchBlocks = 256

// streamBatchBytes bounds the staged bytes of one round trip, well under
// the wire frame limit even with maximal blocks.
const streamBatchBytes = 4 << 20

// PublishDocument encodes and uploads a document in one buffered step.
func (p *Publisher) PublishDocument(root *xmlstream.Node, opts docenc.EncodeOptions) (*docenc.EncodeInfo, error) {
	container, info, err := docenc.Encode(root, opts)
	if err != nil {
		return nil, err
	}
	if err := p.Store.PutDocument(container); err != nil {
		return nil, err
	}
	return info, nil
}

// PublishStream encodes and uploads a document in a single streaming
// pass: blocks leave for the store as the encoder produces them, through
// the begin/commit handshake, so the upload is atomic and nothing larger
// than one batch is resident here. The store stages the upload in memory
// and commits it as one delta — one wire frame, one log record — so a
// streamed document carries at most 64 MiB of stored blocks: the batch
// that crosses that bound is refused, and the upload aborted. When the
// document already exists its version is negotiated (opts.Version 0
// means "stored version plus one"); a store without the handshake falls
// back to the buffered path.
func (p *Publisher) PublishStream(root *xmlstream.Node, opts docenc.EncodeOptions) (*docenc.EncodeInfo, error) {
	base, exists, err := p.currentVersion(opts.DocID)
	if err != nil {
		return nil, err
	}
	if exists {
		if opts.Version == 0 {
			opts.Version = base + 1
		} else if opts.Version <= base {
			return nil, fmt.Errorf("proxy: publish version %d does not advance stored version %d",
				opts.Version, base)
		}
	}

	up, ok := p.Store.(dsp.DocUpdater)
	if !ok {
		return p.PublishDocument(root, opts)
	}
	enc, err := docenc.NewEncoder(root, opts)
	if err != nil {
		return nil, err
	}
	if !exists {
		base = 0
	}
	token, err := up.BeginUpdate(enc.Header(), base)
	if err != nil {
		return nil, err
	}
	batch := newBlockBatcher(up, token)
	if err := enc.Run(batch.add); err != nil {
		_ = up.AbortUpdate(token)
		return nil, err
	}
	if err := batch.flush(); err != nil {
		_ = up.AbortUpdate(token)
		return nil, err
	}
	if err := up.CommitUpdate(token); err != nil {
		return nil, err
	}
	return enc.Info(), nil
}

// blockBatcher groups the encoder's sequential blocks into bounded
// PutBlocks round trips.
type blockBatcher struct {
	up    dsp.DocUpdater
	token uint64
	start int
	buf   [][]byte
	bytes int
}

func newBlockBatcher(up dsp.DocUpdater, token uint64) *blockBatcher {
	return &blockBatcher{up: up, token: token, start: -1}
}

func (b *blockBatcher) add(idx int, stored []byte) error {
	if b.start < 0 {
		b.start = idx
	}
	// The encoder owns no buffer for stored blocks (EncryptBlock
	// allocates), so retaining the slice is safe.
	b.buf = append(b.buf, stored)
	b.bytes += len(stored)
	if len(b.buf) >= streamBatchBlocks || b.bytes >= streamBatchBytes {
		return b.flush()
	}
	return nil
}

func (b *blockBatcher) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	err := b.up.PutBlocks(b.token, b.start, b.buf)
	b.start, b.buf, b.bytes = -1, b.buf[:0], 0
	return err
}

// RepublishInfo describes a delta re-publication.
type RepublishInfo struct {
	// Info is the encoding breakdown of the new version.
	Info *docenc.EncodeInfo
	// Version is the committed successor version.
	Version uint32
	// TotalBlocks / ChangedBlocks: the delta's shrinkage.
	TotalBlocks   int
	ChangedBlocks int
	// ChangedRuns counts the contiguous runs the changes coalesced into.
	ChangedRuns int
	// BytesUploaded is the stored block bytes that actually travelled
	// (the whole container when Fallback).
	BytesUploaded int64
	// Fallback reports that the store lacks the block-patch protocol and
	// the new version went up as a whole container.
	Fallback bool
}

// diffBase is what a re-publication diffs against: a version's header
// and the plaintext payload it encodes, plus the buffer the previous
// base occupied, which the next diff writes the next payload into, and
// the document key's cipher context the diffs seal with. Every byte of
// it was either authenticated under that key when it was fetched or
// produced by this publisher's own encoder. plan is the encoder's plan
// of the tree last diffed: it never vouches for a version, and each diff
// checks that the tree still has its shape before relying on it.
type diffBase struct {
	docID   string
	sctx    *secure.BlockContext
	header  docenc.Header
	payload []byte
	spare   []byte
	plan    docenc.Plan
}

func (b *diffBase) size() int { return cap(b.payload) + cap(b.spare) + b.plan.MemBytes() }

// retainedBaseBytes bounds the bytes a Publisher keeps between
// re-publications: both buffers and the plan of every base.
const retainedBaseBytes = 8 << 20

// checkout takes the retained base of docID out of the retention: for
// the length of a Republish it belongs to that call alone, and a
// concurrent re-publication of the same document finds none.
func (p *Publisher) checkout(docID string) *diffBase {
	p.mu.Lock()
	defer p.mu.Unlock()
	el := p.bases[docID]
	if el == nil {
		return nil
	}
	b := p.lru.Remove(el).(*diffBase)
	delete(p.bases, docID)
	p.retained -= b.size()
	return b
}

// retain puts a base (back) as the most recently used one and evicts
// from the other end down to the byte bound. Of two bases of one
// document — a re-publication that lost a race can finish after the
// winner's successor — the later version stays.
func (p *Publisher) retain(b *diffBase) {
	if b.size() > retainedBaseBytes {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el := p.bases[b.docID]; el != nil {
		if el.Value.(*diffBase).header.Version >= b.header.Version {
			return
		}
		p.retained -= p.lru.Remove(el).(*diffBase).size()
	}
	if p.bases == nil {
		p.bases = make(map[string]*list.Element)
	}
	p.bases[b.docID] = p.lru.PushFront(b)
	p.retained += b.size()
	for p.retained > retainedBaseBytes {
		old := p.lru.Remove(p.lru.Back()).(*diffBase)
		delete(p.bases, old.docID)
		p.retained -= old.size()
	}
}

// fetchBlocks reads every stored block of the version h describes.
func (p *Publisher) fetchBlocks(h *docenc.Header) ([][]byte, error) {
	blocks, err := p.Store.ReadBlocks(h.DocID, 0, h.NumBlocks())
	if err != nil {
		return nil, fmt.Errorf("proxy: republish base: %w", err)
	}
	return blocks, nil
}

// fetchBase reads the stored version h describes and authenticates it
// under key — header MAC and every block tag — before it becomes a diff
// base. It returns the stored blocks too, for the whole-container
// fallback.
func (p *Publisher) fetchBase(h docenc.Header, key secure.DocKey) (*diffBase, [][]byte, error) {
	blocks, err := p.fetchBlocks(&h)
	if err != nil {
		return nil, nil, err
	}
	payload, err := (&docenc.Container{Header: h, Blocks: blocks}).DecryptPayload(key)
	if err != nil {
		return nil, nil, fmt.Errorf("proxy: authenticating the republish base: %w", err)
	}
	sctx, err := secure.NewBlockContext(key)
	if err != nil {
		return nil, nil, err
	}
	return &diffBase{docID: h.DocID, sctx: sctx, header: h, payload: payload}, blocks, nil
}

// commitDelta sends d as the store's one-frame commit. A store without
// one (or in front of one without it) is asked for its header — the
// check the frame has the store make — and, if the base is still there,
// answers ErrUpdateUnsupported.
func (p *Publisher) commitDelta(d *docenc.DeltaUpdate) (docenc.Header, error) {
	if dc, ok := p.Store.(dsp.DeltaCommitter); ok {
		if h, err := dc.CommitDelta(d); err == nil || !updateUnsupported(err) {
			return h, err
		}
	}
	h, err := p.Store.Header(d.Header.DocID)
	switch {
	case err != nil:
		return h, err
	case h.Version != d.BaseVersion || h.MAC != d.BaseMAC:
		return h, fmt.Errorf("%w: the store holds version %d", dsp.ErrBaseMoved, h.Version)
	}
	return h, dsp.ErrUpdateUnsupported
}

// Republish encodes root as the successor of the stored version of
// opts.DocID and commits only the changed blocks, atomically, in one
// frame; the version is negotiated: stored version plus one.
//
// The diff base is the stored version's plaintext. A Publisher that
// retained the document's base — from its own last acknowledged commit,
// or its last fetch — diffs against it without asking the store
// anything: the commit names the base by version and header MAC, and
// the store refuses it if that is not what it holds, answering with the
// header it does hold. Otherwise, or when that header is newer (another
// publisher committed since), the stored container is fetched and
// authenticated under opts.Key — header MAC and every block tag —
// before it is trusted, so a tampering store cannot poison the new
// version. A store that answers with a version at or below the retained
// one has rolled the document back: that is an integrity error, not a
// base, and the retained base stays. The base is kept past a commit only
// if the store acknowledges holding exactly the header this Publisher
// sealed. The delta travels whole, so to a durable or remote store it
// carries at most 64 MiB of changed blocks; a larger one is refused
// before anything is sent or logged.
func (p *Publisher) Republish(root *xmlstream.Node, opts docenc.EncodeOptions) (*RepublishInfo, error) {
	if opts.DocID == "" {
		return nil, fmt.Errorf("proxy: republish needs a DocID")
	}
	// keep is what goes back into the retention when the call returns.
	b := p.checkout(opts.DocID)
	if b != nil && b.sctx.Key() != opts.Key {
		b = nil // authenticated under another key: not this caller's base
	}
	keep := b
	defer func() {
		if keep != nil {
			p.retain(keep)
		}
	}()
	retained := b != nil
	// blocks are the stored blocks of the base, once they have been read.
	var blocks [][]byte
	if !retained {
		h, err := p.Store.Header(opts.DocID)
		if err != nil {
			return nil, fmt.Errorf("proxy: republish base: %w", err)
		}
		if b, blocks, err = p.fetchBase(h, opts.Key); err != nil {
			return nil, err
		}
		keep = b
	}
	for {
		delta, info, next, err := docenc.DiffEncodePayload(root, opts, b.sctx, &b.plan, &b.header, b.payload, b.spare)
		if err != nil {
			return nil, err
		}
		ri := &RepublishInfo{
			Info:          info,
			Version:       delta.Header.Version,
			TotalBlocks:   delta.TotalBlocks,
			ChangedBlocks: delta.ChangedBlocks,
			ChangedRuns:   len(delta.Runs),
			BytesUploaded: delta.BytesChanged,
		}
		// A commit that fails drops the base: what the store holds
		// afterwards is for the next call's fetch to find out.
		keep = nil
		h, err := p.commitDelta(delta)
		switch {
		case err == nil:
			if !h.Equal(&delta.Header) {
				return nil, fmt.Errorf("proxy: republish: %w: the store acknowledged version %d of %q under another header",
					secure.ErrIntegrity, h.Version, opts.DocID)
			}
		case retained && errors.Is(err, dsp.ErrBaseMoved):
			if h.Version <= b.header.Version {
				keep = b
				return nil, fmt.Errorf("proxy: republish base: %w: the store answers version %d of %q after acknowledging version %d",
					secure.ErrIntegrity, h.Version, opts.DocID, b.header.Version)
			}
			// Someone else committed since: their version, authenticated,
			// is the base, once.
			retained = false
			if b, blocks, err = p.fetchBase(h, opts.Key); err != nil {
				return nil, err
			}
			keep = b
			continue
		case updateUnsupported(err):
			if blocks == nil {
				if blocks, err = p.fetchBlocks(&b.header); err != nil {
					return nil, err
				}
			}
			applied, err := delta.Apply(&docenc.Container{Header: b.header, Blocks: blocks})
			if err != nil {
				return nil, err
			}
			if err := p.Store.PutDocument(applied); err != nil {
				return nil, err
			}
			ri.Fallback = true
			ri.BytesUploaded = int64(applied.StoredSize())
		default:
			return nil, err
		}
		b.header = delta.Header
		b.payload, b.spare = next, b.payload
		keep = b
		return ri, nil
	}
}

// updateUnsupported recognizes dsp.ErrUpdateUnsupported locally and
// through a server's error response (which flattens it to a string).
func updateUnsupported(err error) bool {
	return errors.Is(err, dsp.ErrUpdateUnsupported) ||
		strings.Contains(err.Error(), dsp.ErrUpdateUnsupported.Error())
}

// currentVersion probes the stored version of a document. Only a
// definite "unknown document" answer reads as absent; any other header
// failure (transport, server fault) aborts the publish — treating it as
// absent would let the fallback path silently overwrite an existing
// document at version 0.
func (p *Publisher) currentVersion(docID string) (uint32, bool, error) {
	if docID == "" {
		return 0, false, fmt.Errorf("proxy: publish needs a DocID")
	}
	h, err := p.Store.Header(docID)
	switch {
	case err == nil:
		return h.Version, true, nil
	case dsp.IsUnknownDocument(err):
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("proxy: probing the stored version: %w", err)
	}
}

// GrantRules seals a rule set under the document key and uploads it. The
// rule set's DocID must match; its version should increase on every
// change (the card refuses rollbacks).
func (p *Publisher) GrantRules(key secure.DocKey, rs *accessrule.RuleSet) error {
	if err := rs.Validate(); err != nil {
		return err
	}
	if rs.DocID == "" {
		return fmt.Errorf("proxy: rule set must name its document")
	}
	plain, err := rs.MarshalBinary()
	if err != nil {
		return err
	}
	sealed, err := secure.EncryptBlob(key, card.RuleBlobNamespace(rs.DocID, rs.Subject), 0, plain)
	if err != nil {
		return err
	}
	return p.Store.PutRuleSet(rs.DocID, rs.Subject, rs.Version, sealed)
}
