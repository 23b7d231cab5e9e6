package dsp

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/docenc"
	"repro/internal/secure"
)

// ErrUpdateUnsupported reports a store without block-level commits;
// callers fall back to a whole-container PutDocument.
var ErrUpdateUnsupported = errors.New("dsp: store does not support block updates")

// ErrBaseMoved reports a delta commit whose base — version and header
// MAC — is not the version the store holds. The commit returns the
// header the store does hold alongside it.
var ErrBaseMoved = errors.New("dsp: the delta's base is not the stored version")

// DeltaCommitter is implemented by stores that commit a delta
// re-publication in one call (one frame on the wire, one log record on
// disk): the new header and the changed block runs replace the document
// atomically, every other block carried over from the base. The base is
// named by version and header MAC, so a delta applies to exactly the
// version it was diffed against and no other, even one that reuses the
// version number. The reply is the header the store holds afterwards:
// the delta's own on success, the stored one with ErrBaseMoved when the
// base moved. A delta against version 0 of an absent document creates
// it, in which case it must carry every block.
type DeltaCommitter interface {
	CommitDelta(d *docenc.DeltaUpdate) (docenc.Header, error)
}

// DocUpdater is the staged form of the same commit, for an upload that
// is produced incrementally (the streaming publisher):
//
//	token := BeginUpdate(newHeader, baseVersion)
//	PutBlocks(token, run.Start, run.Blocks)   // once per batch
//	CommitUpdate(token)                       // or AbortUpdate
//
// Staged blocks live in the store's memory only; CommitUpdate hands the
// whole update to the store's delta commit against the base BeginUpdate
// saw, so nothing is partially applied, and a version that moved in
// between fails the commit.
type DocUpdater interface {
	BeginUpdate(h docenc.Header, baseVersion uint32) (uint64, error)
	PutBlocks(token uint64, start int, blocks [][]byte) error
	CommitUpdate(token uint64) error
	AbortUpdate(token uint64) error
}

// maxPendingUpdates bounds staged updates per store: an abandoned
// handshake (client crash between Begin and Commit) must not let hostile
// or buggy clients grow server memory without bound. Hitting the bound
// evicts the oldest staged update (see BeginUpdate).
const maxPendingUpdates = 64

// ApplyDelta commits a DeltaUpdate through the store's one-call commit.
// A store without one gets ErrUpdateUnsupported — the caller decides
// whether a full PutDocument is an acceptable fallback.
func ApplyDelta(s Store, d *docenc.DeltaUpdate) error {
	dc, ok := s.(DeltaCommitter)
	if !ok {
		return ErrUpdateUnsupported
	}
	_, err := dc.CommitDelta(d)
	return err
}

// checkBase refuses an update to h against the base (version, MAC)
// that cur, the stored container (nil when the document is absent),
// does not match or that h does not advance.
func checkBase(cur *docenc.Container, h *docenc.Header, version uint32, mac [secure.HeaderMACLen]byte) error {
	switch {
	case h.DocID == "" || h.BlockPlain == 0:
		return fmt.Errorf("dsp: update header without document id or geometry")
	case cur == nil && version != 0:
		return fmt.Errorf("%w: %q (update against version %d)", ErrUnknownDocument, h.DocID, version)
	case cur != nil && (cur.Header.Version != version || cur.Header.MAC != mac):
		return fmt.Errorf("%w: %q is at version %d, the update is against %d",
			ErrBaseMoved, h.DocID, cur.Header.Version, version)
	case cur != nil && h.Version <= cur.Header.Version:
		return fmt.Errorf("dsp: update version %d does not advance stored version %d",
			h.Version, cur.Header.Version)
	}
	return nil
}

// applyDelta checks d against cur, the stored container (nil when the
// document is absent), and builds the container the commit installs.
func applyDelta(cur *docenc.Container, d *docenc.DeltaUpdate) (*docenc.Container, error) {
	h := &d.Header
	if err := checkBase(cur, h, d.BaseVersion, d.BaseMAC); err != nil {
		return nil, err
	}
	// Every block comes from the base or a run, so a geometry larger than
	// both together is refused before it sizes an allocation.
	var base [][]byte
	if cur != nil {
		base = cur.Blocks
	}
	n, have := h.NumBlocks(), len(base)
	for _, r := range d.Runs {
		have += len(r.Blocks)
	}
	if n < 0 || n > have {
		return nil, fmt.Errorf("dsp: update of %q leaves blocks of its %d-block geometry missing", h.DocID, n)
	}
	blocks := make([][]byte, n)
	copy(blocks, base)
	// Runs are non-empty and in order without overlap — what the log's
	// decoder accepts — so every run block is checked below.
	end := 0
	for _, r := range d.Runs {
		if r.Start < end || len(r.Blocks) == 0 || len(r.Blocks) > n-r.Start {
			return nil, fmt.Errorf("dsp: block run [%d,+%d) empty, out of order or outside the %d-block geometry",
				r.Start, len(r.Blocks), n)
		}
		copy(blocks[r.Start:], r.Blocks)
		end = r.Start + len(r.Blocks)
	}
	for i, b := range blocks {
		if len(b) != h.BlockStoredLen(i) {
			return nil, fmt.Errorf("dsp: update of %q leaves block %d missing or mis-sized", h.DocID, i)
		}
	}
	return &docenc.Container{Header: *h, Blocks: blocks}, nil
}

// headerOf is the header of a stored container, zero when absent.
func headerOf(c *docenc.Container) docenc.Header {
	if c == nil {
		return docenc.Header{}
	}
	return c.Header
}

// commitDelta checks d against the shard's copy of its document and
// returns the step that installs the new version, or the header the
// shard holds with the reason it refuses. The caller holds the shard
// lock (for writing when it installs).
func (sh *memShard) commitDelta(d *docenc.DeltaUpdate) (func(), docenc.Header, error) {
	cur := sh.docs[d.Header.DocID]
	c, err := applyDelta(cur, d)
	if err != nil {
		return nil, headerOf(cur), err
	}
	return func() { sh.docs[c.Header.DocID] = c }, c.Header, nil
}

// CommitDelta implements DeltaCommitter.
func (s *MemStore) CommitDelta(d *docenc.DeltaUpdate) (docenc.Header, error) {
	sh := s.shard(d.Header.DocID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	install, h, err := sh.commitDelta(d)
	if err == nil {
		install()
	}
	return h, err
}

// BeginUpdate implements DocUpdater. The base is the stored version now
// — its header MAC included — and the commit is refused if it moved.
func (s *MemStore) BeginUpdate(h docenc.Header, baseVersion uint32) (uint64, error) {
	sh := s.shard(h.DocID)
	sh.mu.RLock()
	base := headerOf(sh.docs[h.DocID])
	err := checkBase(sh.docs[h.DocID], &h, baseVersion, base.MAC)
	sh.mu.RUnlock()
	if err != nil {
		return 0, err
	}

	s.updMu.Lock()
	defer s.updMu.Unlock()
	// At capacity the oldest staged update is evicted rather than the
	// new one refused: a client that crashed between Begin and Commit
	// must not be able to brick the update path for everyone until a
	// server restart. The evicted update's owner, if it is somehow still
	// alive, sees "unknown token" at its next op and restarts — the same
	// optimistic-retry outcome as a version conflict.
	if len(s.updates) >= maxPendingUpdates {
		delete(s.updates, slices.Min(slices.Collect(maps.Keys(s.updates))))
	}
	s.updSeq++
	token := s.updSeq
	s.updates[token] = &docenc.DeltaUpdate{Header: h, BaseVersion: baseVersion, BaseMAC: base.MAC}
	return token, nil
}

// PutBlocks implements DocUpdater: it stages one run of stored blocks.
// Lengths are validated against the new header's geometry — the store
// cannot check ciphertext (it holds no keys), but it can refuse blocks
// that could never decrypt. A staged update commits as one delta, which
// one frame or one log record must hold: the run that takes its blocks
// past maxFrame bytes is refused, not the commit after the whole upload.
func (s *MemStore) PutBlocks(token uint64, start int, blocks [][]byte) error {
	if start < 0 {
		return fmt.Errorf("dsp: negative block offset %d", start)
	}
	s.updMu.Lock()
	defer s.updMu.Unlock()
	up, ok := s.updates[token]
	if !ok {
		return fmt.Errorf("dsp: unknown update token %d", token)
	}
	n := up.Header.NumBlocks()
	if start > n || len(blocks) > n-start {
		return fmt.Errorf("dsp: block run [%d,+%d) outside the %d-block geometry", start, len(blocks), n)
	}
	staged := up.BytesChanged
	for i, b := range blocks {
		if want := up.Header.BlockStoredLen(start + i); len(b) != want {
			return fmt.Errorf("dsp: staged block %d has %d bytes, geometry says %d", start+i, len(b), want)
		}
		staged += int64(len(b))
	}
	if staged > maxFrame {
		return fmt.Errorf("dsp: staging %d bytes of %q exceeds the %d-byte commit limit", staged, up.Header.DocID, maxFrame)
	}
	up.BytesChanged = staged
	up.Runs = append(up.Runs, docenc.PatchRun{Start: start, Blocks: blocks})
	return nil
}

// takeUpdate retires a staged update and returns it as the delta its
// commit applies. A failed commit retires the update too.
func (s *MemStore) takeUpdate(token uint64) (*docenc.DeltaUpdate, error) {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	up, ok := s.updates[token]
	if !ok {
		return nil, fmt.Errorf("dsp: unknown update token %d", token)
	}
	delete(s.updates, token)
	return up, nil
}

// CommitUpdate implements DocUpdater through CommitDelta.
func (s *MemStore) CommitUpdate(token uint64) error {
	d, err := s.takeUpdate(token)
	if err == nil {
		_, err = s.CommitDelta(d)
	}
	return err
}

// AbortUpdate implements DocUpdater.
func (s *MemStore) AbortUpdate(token uint64) error {
	_, err := s.takeUpdate(token)
	return err
}

var (
	_ DocUpdater     = (*MemStore)(nil)
	_ DeltaCommitter = (*MemStore)(nil)
)
