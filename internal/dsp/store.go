// Package dsp implements the untrusted Database Service Provider of the
// architecture: it "hosts encrypted XML documents shared by users as well
// as encrypted access rules" (Section 3) and serves them to terminals.
//
// The store is untrusted by construction: everything it holds is
// encrypted and integrity-tagged by the publishing side, and the SOE
// detects tampering, substitution and replay. The store's only functional
// obligations are availability and range reads — the latter is what turns
// the SOE's skip decisions into bytes never transmitted.
//
// Because the DSP is the only tier the architecture allows to scale out,
// it is built for concurrent traffic: MemStore shards documents across
// independently locked partitions, Cache keeps hot encrypted blocks in an
// LRU front, the TCP server pipelines requests per connection over a
// bounded worker pool and answers block reads zero-copy (pooled response
// heads, one vectored write over store-owned block references — blocks
// are immutable once published, so the wire path never copies them), and
// Pool fans client traffic over several connections. FileStore keeps the
// same in-memory tier durable: per-shard WAL segments with group commit
// within and across segments, streaming checkpoints, and parallel
// recovery. cmd/dspd serves a store over a length-prefixed binary
// protocol.
package dsp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/docenc"
)

// ErrUnknownDocument reports a read of a document the store does not
// hold. Callers deciding between "absent" and "broken" (the streaming
// publisher's create-or-update negotiation) must use IsUnknownDocument,
// which also recognizes the error after a wire crossing.
var ErrUnknownDocument = errors.New("dsp: unknown document")

// IsUnknownDocument reports whether err means the document is absent —
// locally (errors.Is) or as a server-reported error, which the wire
// flattens to its message.
func IsUnknownDocument(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrUnknownDocument) ||
		strings.Contains(err.Error(), ErrUnknownDocument.Error())
}

// Store is the DSP interface terminals program against.
type Store interface {
	// PutDocument stores (or replaces) a document container.
	PutDocument(c *docenc.Container) error
	// Header returns a document's cleartext header.
	Header(docID string) (docenc.Header, error)
	// ReadBlock returns one stored block (ciphertext||tag).
	ReadBlock(docID string, idx int) ([]byte, error)
	// ReadBlocks returns a contiguous run of stored blocks.
	BlockRangeReader
	// PutRuleSet stores a subject's sealed rule set for a document.
	PutRuleSet(docID, subject string, version uint32, sealed []byte) error
	// RuleSet returns the latest sealed rule set for (doc, subject).
	RuleSet(docID, subject string) ([]byte, error)
	// ListDocuments returns the stored document ids, sorted.
	ListDocuments() ([]string, error)
}

// BlockRangeReader serves a contiguous run of blocks in one call — the
// skip index hands the terminal exactly such runs, so a batched read
// turns a run into one round trip. Every Store is one; an implementation
// rejects a range that is negative or runs past the document, without
// computing start+count, which a hostile wire request can overflow.
type BlockRangeReader interface {
	ReadBlocks(docID string, start, count int) ([][]byte, error)
}

// ReadBlockRange is s.ReadBlocks, kept for the repository benchmark's
// re-publication rig, which calls it by this name.
func ReadBlockRange(s Store, docID string, start, count int) ([][]byte, error) {
	return s.ReadBlocks(docID, start, count)
}

// DefaultShards is the MemStore shard count used by NewMemStore.
const DefaultShards = 16

// MemStore is the in-process Store, sharded by document id so that
// concurrent readers of different documents never contend on one lock.
type MemStore struct {
	shards []memShard

	// Staged block-level updates (see update.go); kept off the shard
	// locks so an in-progress upload never blocks readers.
	updMu   sync.Mutex
	updSeq  uint64
	updates map[uint64]*docenc.DeltaUpdate
}

type memShard struct {
	mu    sync.RWMutex
	docs  map[string]*docenc.Container
	rules map[string]ruleEntry
}

type ruleEntry struct {
	version uint32
	sealed  []byte
}

// NewMemStore returns an empty store with DefaultShards partitions.
func NewMemStore() *MemStore {
	return NewMemStoreShards(DefaultShards)
}

// NewMemStoreShards returns an empty store with n partitions (n < 1 is
// clamped to 1, which degenerates to the single-lock layout).
func NewMemStoreShards(n int) *MemStore {
	if n < 1 {
		n = 1
	}
	s := &MemStore{shards: make([]memShard, n), updates: make(map[uint64]*docenc.DeltaUpdate)}
	for i := range s.shards {
		s.shards[i].docs = make(map[string]*docenc.Container)
		s.shards[i].rules = make(map[string]ruleEntry)
	}
	return s
}

// shardHash is an allocation-free FNV-1a over a document id and a block
// index (pass 0 when sharding by document alone) — the hot read path
// runs it per request, so it must not heap-allocate a hasher.
func shardHash(docID string, idx uint32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(docID); i++ {
		h = (h ^ uint32(docID[i])) * 16777619
	}
	for s := 0; s < 32; s += 8 {
		h = (h ^ ((idx >> s) & 0xff)) * 16777619
	}
	return h
}

// shard maps a document id to its partition. Rule sets live with their
// document so one (doc, subject) exchange touches one lock.
func (s *MemStore) shard(docID string) *memShard {
	return &s.shards[shardHash(docID, 0)%uint32(len(s.shards))]
}

// checkContainer is what the store can check of a container it holds no
// key for: an id, and one block per block of its geometry.
func checkContainer(c *docenc.Container) error {
	if c == nil || c.Header.DocID == "" {
		return fmt.Errorf("dsp: container without document id")
	}
	if len(c.Blocks) != c.Header.NumBlocks() {
		return fmt.Errorf("dsp: container block count %d does not match geometry %d",
			len(c.Blocks), c.Header.NumBlocks())
	}
	return nil
}

// PutDocument implements Store.
func (s *MemStore) PutDocument(c *docenc.Container) error {
	if err := checkContainer(c); err != nil {
		return err
	}
	sh := s.shard(c.Header.DocID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.docs[c.Header.DocID] = c
	return nil
}

// Header implements Store.
func (s *MemStore) Header(docID string) (docenc.Header, error) {
	sh := s.shard(docID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.docs[docID]
	if !ok {
		return docenc.Header{}, fmt.Errorf("%w: %q", ErrUnknownDocument, docID)
	}
	return c.Header, nil
}

// ReadBlock implements Store.
func (s *MemStore) ReadBlock(docID string, idx int) ([]byte, error) {
	sh := s.shard(docID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.docs[docID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, docID)
	}
	if idx < 0 || idx >= len(c.Blocks) {
		return nil, fmt.Errorf("dsp: block %d out of range [0,%d) for %q", idx, len(c.Blocks), docID)
	}
	return c.Blocks[idx], nil
}

// ReadBlocks implements Store under one lock acquisition.
func (s *MemStore) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	sh := s.shard(docID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.docs[docID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, docID)
	}
	// Bounds are checked without computing start+count, which a hostile
	// wire request can overflow.
	if start < 0 || count < 0 || start > len(c.Blocks) || count > len(c.Blocks)-start {
		return nil, fmt.Errorf("dsp: block range [%d,+%d) out of range [0,%d) for %q",
			start, count, len(c.Blocks), docID)
	}
	out := make([][]byte, count)
	copy(out, c.Blocks[start:start+count])
	return out, nil
}

// Snapshot returns the stored container of a document: the header plus
// a copied block list (the block payloads are shared and must be treated
// as read-only). Persistence layers shadowing a MemStore use it to see
// the outcome of a block-level update they did not assemble themselves.
func (s *MemStore) Snapshot(docID string) (*docenc.Container, error) {
	sh := s.shard(docID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.docs[docID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, docID)
	}
	cp := &docenc.Container{Header: c.Header}
	cp.Blocks = append(cp.Blocks, c.Blocks...)
	return cp, nil
}

// PutRuleSet implements Store. The store keeps only the latest version it
// has seen; an honest store thereby serves fresh rights, and a malicious
// one replaying old blobs is caught by the card's version check, not here.
func (s *MemStore) PutRuleSet(docID, subject string, version uint32, sealed []byte) error {
	sh := s.shard(docID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	install, err := sh.putRuleSet(docID, subject, version, sealed)
	if err == nil {
		install()
	}
	return err
}

// putRuleSet checks a rule-set write against the shard and returns the
// step that installs it. The caller holds the shard lock (for writing
// when it installs).
func (sh *memShard) putRuleSet(docID, subject string, version uint32, sealed []byte) (func(), error) {
	if subject == "" {
		return nil, fmt.Errorf("dsp: rule set without subject")
	}
	k := docID + "\x00" + subject
	if cur, ok := sh.rules[k]; ok && cur.version > version {
		return nil, fmt.Errorf("dsp: rule set version %d older than stored %d", version, cur.version)
	}
	e := ruleEntry{version: version, sealed: append([]byte(nil), sealed...)}
	return func() { sh.rules[k] = e }, nil
}

// RuleSet implements Store.
func (s *MemStore) RuleSet(docID, subject string) ([]byte, error) {
	sh := s.shard(docID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.rules[docID+"\x00"+subject]
	if !ok {
		return nil, fmt.Errorf("dsp: no rule set for subject %q on document %q", subject, docID)
	}
	return e.sealed, nil
}

// ListDocuments implements Store.
func (s *MemStore) ListDocuments() ([]string, error) {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.docs {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out, nil
}

// Tamper flips a byte of a stored block: the adversarial store used by
// integrity tests. It returns an error if the target does not exist.
func (s *MemStore) Tamper(docID string, blockIdx, byteIdx int) error {
	sh := s.shard(docID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.docs[docID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDocument, docID)
	}
	if blockIdx < 0 || blockIdx >= len(c.Blocks) {
		return fmt.Errorf("dsp: block %d out of range", blockIdx)
	}
	b := append([]byte(nil), c.Blocks[blockIdx]...)
	if byteIdx < 0 || byteIdx >= len(b) {
		return fmt.Errorf("dsp: byte %d out of range", byteIdx)
	}
	b[byteIdx] ^= 0xFF
	c.Blocks[blockIdx] = b
	return nil
}

// SwapBlocks exchanges two stored blocks (substitution attack).
func (s *MemStore) SwapBlocks(docID string, i, j int) error {
	sh := s.shard(docID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.docs[docID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDocument, docID)
	}
	if i < 0 || j < 0 || i >= len(c.Blocks) || j >= len(c.Blocks) {
		return fmt.Errorf("dsp: block index out of range")
	}
	c.Blocks[i], c.Blocks[j] = c.Blocks[j], c.Blocks[i]
	return nil
}

var _ Store = (*MemStore)(nil)
