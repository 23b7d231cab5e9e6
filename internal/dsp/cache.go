package dsp

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/docenc"
)

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Hits and Misses count block lookups served from / past the cache.
	Hits, Misses int64
	// Evictions counts blocks dropped to respect the byte budget.
	Evictions int64
	// Blocks and Bytes describe the current residency.
	Blocks int
	Bytes  int64
}

// HitRate returns hits / lookups, or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is an LRU block cache in front of a Store: hot encrypted blocks
// are served from memory without touching the backing store. Blocks are
// ciphertext — the cache never sees plaintext, so it is as untrusted as
// the store it fronts and can run on the same scaled-out tier.
//
// The cache is sharded by (document, block) so it adds no global lock to
// a sharded backend and one hot document can use the whole byte budget.
// Only block reads are cached; headers and rule sets pass through (they
// are one-lock lookups already).
type Cache struct {
	store  Store
	shards []cacheShard

	// gens carries a generation counter per re-published document
	// (docID → *atomic.Uint64). PutDocument bumps it before purging, and
	// fills started against the old generation refuse to insert —
	// otherwise an in-flight read of the old ciphertext could land after
	// the purge and be served until eviction. Entries are created only
	// by invalidation, so reads of arbitrary (or hostile, nonexistent)
	// ids never grow the map.
	gens sync.Map

	// versions remembers the header version each document's resident
	// blocks belong to (docID → *atomic.Uint32), as observed by Header.
	// Writes that pass through this cache invalidate on their own; a
	// document re-published behind it — another client of the same
	// remote store — shows only as a header that moved, and every query
	// fetches the header first. Entries exist only for documents the
	// backing store returned a header for.
	versions sync.Map

	// updDocs maps in-flight update tokens to their document id, so a
	// commit knows which document to invalidate.
	updDocs sync.Map

	hits, misses, evictions atomic.Int64
}

type cacheShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[cacheKey]*list.Element
}

type cacheKey struct {
	docID string
	idx   int
}

type cacheEntry struct {
	key   cacheKey
	gen   uint64
	block []byte
}

// DefaultCacheBytes is the NewCache budget when maxBytes <= 0 (64 MiB —
// a few hundred documents of the paper's workloads).
const DefaultCacheBytes = 64 << 20

// NewCache wraps store with an LRU block cache holding at most maxBytes
// of block data (<= 0 selects DefaultCacheBytes).
func NewCache(store Store, maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	n := DefaultShards
	c := &Cache{store: store, shards: make([]cacheShard, n)}
	per := maxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].maxBytes = per
		c.shards[i].lru = list.New()
		c.shards[i].entries = make(map[cacheKey]*list.Element)
	}
	return c
}

func (c *Cache) shard(k cacheKey) *cacheShard {
	return &c.shards[shardHash(k.docID, uint32(k.idx))%uint32(len(c.shards))]
}

// genValue returns the document's current generation (0 until its first
// re-publish; only invalidate creates entries).
func (c *Cache) genValue(docID string) uint64 {
	if g, ok := c.gens.Load(docID); ok {
		return g.(*atomic.Uint64).Load()
	}
	return 0
}

// Stats snapshots the counters and residency.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Blocks += sh.lru.Len()
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// lookup returns a cached block, or nil.
func (sh *cacheShard) lookup(k cacheKey) []byte {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[k]
	if !ok {
		return nil
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).block
}

// insert adds a block fetched under generation wantGen, evicting from
// the tail to stay under budget. A fill whose generation is stale (the
// document was re-published while the backing read was in flight) is
// dropped. Returns the number of evictions.
func (c *Cache) insert(sh *cacheShard, k cacheKey, wantGen uint64, block []byte) int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.genValue(k.docID) != wantGen {
		return 0
	}
	if el, ok := sh.entries[k]; ok {
		// Racing fill of the same block and generation: keep the
		// resident copy fresh.
		sh.lru.MoveToFront(el)
		return 0
	}
	if int64(len(block)) > sh.maxBytes {
		return 0 // an oversized block would evict the whole shard for one use
	}
	sh.entries[k] = sh.lru.PushFront(&cacheEntry{key: k, gen: wantGen, block: block})
	sh.bytes += int64(len(block))
	var evicted int64
	for sh.bytes > sh.maxBytes {
		tail := sh.lru.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		sh.lru.Remove(tail)
		delete(sh.entries, e.key)
		sh.bytes -= int64(len(e.block))
		evicted++
	}
	return evicted
}

// purgeDoc drops every resident block of one document from one shard.
func (sh *cacheShard) purgeDoc(docID string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for el := sh.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.docID == docID {
			sh.lru.Remove(el)
			delete(sh.entries, e.key)
			sh.bytes -= int64(len(e.block))
		}
		el = next
	}
}

// invalidate retires a document's cached blocks: after a re-put the old
// ciphertext must not be served (the header's version changed and the
// card would reject stale blocks as a replay). The generation bump
// happens first so concurrent fills of the old content abort.
func (c *Cache) invalidate(docID string) {
	g, _ := c.gens.LoadOrStore(docID, new(atomic.Uint64))
	g.(*atomic.Uint64).Add(1)
	for i := range c.shards {
		c.shards[i].purgeDoc(docID)
	}
}

// PutDocument implements Store, invalidating the document's cached blocks.
func (c *Cache) PutDocument(con *docenc.Container) error {
	if err := c.store.PutDocument(con); err != nil {
		return err
	}
	if con != nil && con.Header.DocID != "" {
		c.invalidate(con.Header.DocID)
	}
	return nil
}

// Header implements Store: passed through, and watched. When a document
// answers with another version than the one its resident blocks were
// filled under, they are ciphertext of a superseded version and would
// fail every later query's integrity check; the observer that wins the
// swap retires them. A document seen for the first time is purged too,
// since nothing says which version blocks read before belong to.
func (c *Cache) Header(docID string) (docenc.Header, error) {
	h, err := c.store.Header(docID)
	if err != nil {
		return h, err
	}
	v, seen := c.versions.Load(docID)
	if !seen {
		fresh := new(atomic.Uint32)
		fresh.Store(h.Version)
		if v, seen = c.versions.LoadOrStore(docID, fresh); !seen {
			c.invalidate(docID)
			return h, nil
		}
	}
	was := v.(*atomic.Uint32)
	if old := was.Load(); old != h.Version && was.CompareAndSwap(old, h.Version) {
		c.invalidate(docID)
	}
	return h, nil
}

// ReadBlock implements Store through the cache.
func (c *Cache) ReadBlock(docID string, idx int) ([]byte, error) {
	k := cacheKey{docID: docID, idx: idx}
	sh := c.shard(k)
	if b := sh.lookup(k); b != nil {
		c.hits.Add(1)
		return b, nil
	}
	c.misses.Add(1)
	wantGen := c.genValue(docID)
	b, err := c.store.ReadBlock(docID, idx)
	if err != nil {
		return nil, err
	}
	c.evictions.Add(c.insert(sh, k, wantGen, b))
	return b, nil
}

// ReadBlocks implements BlockRangeReader: resident blocks are served from
// memory and each gap is fetched from the backing store in one batched
// read (when it supports ranges).
func (c *Cache) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	return c.readRun(docID, start, count, nil, nil)
}

// ReadBlocksPinned implements PinnedBlockReader: cache hits are ordinary
// heap blocks, and gap fills pass the pins through to the backing store,
// so a mostly-cold range still travels mmap → writev without a copy.
func (c *Cache) ReadBlocksPinned(docID string, start, count int, pins *[]BlockPin) ([][]byte, bool, error) {
	return readPinned(c, docID, start, count, pins)
}

// readRun implements runReader and is the Cache's one range read. Cache
// hits stay heap blocks. With pins == nil every gap fill comes back as
// store-owned heap memory and is inserted into the LRU; with pins set,
// fills go through the backing store's pinned path, and a fill that came
// back mapped is served but NOT cached — the views are only valid until
// the pin releases, while a cache entry would outlive it and serve
// unmapped memory. With runs set, each cold gap also forwards the
// backing store's file runs (shifted to this read's indexing), so the
// hot set rides the LRU while a cold run still leaves the box
// kernel-side.
func (c *Cache) readRun(docID string, start, count int, pins *[]BlockPin, runs *[]wireRun) ([][]byte, error) {
	if start < 0 || count < 0 {
		return nil, fmt.Errorf("dsp: negative block range [%d,+%d)", start, count)
	}
	rr, pinnable := c.store.(runReader)
	out := make([][]byte, count)
	missFrom := -1
	flushGap := func(end int) error {
		if missFrom < 0 {
			return nil
		}
		wantGen := c.genValue(docID)
		var got [][]byte
		var mapped bool
		var err error
		switch {
		case pins != nil && pinnable:
			// Forward the backing store's file runs, if asked for,
			// re-indexed from the gap's offset to this read's.
			pre, preRuns := len(*pins), 0
			if runs != nil {
				preRuns = len(*runs)
			}
			got, err = rr.readRun(docID, start+missFrom, end-missFrom, pins, runs)
			mapped = err == nil && len(*pins) > pre
			for i := preRuns; runs != nil && i < len(*runs); i++ {
				(*runs)[i].Start += missFrom
			}
		case pinnable:
			// Plain fills ride the pinned tier too: a gap served out of a
			// mapped checkpoint image is copied out of the mapping once
			// for the caller (the views die with the pins) and then NOT
			// inserted into the LRU — the mapping re-serves those blocks
			// from the page cache for free, so caching the copies would
			// evict blocks that are genuinely expensive to refetch.
			var local []BlockPin
			got, mapped, err = readPinned(rr, docID, start+missFrom, end-missFrom, &local)
			if err == nil && mapped {
				for j, b := range got {
					got[j] = append(make([]byte, 0, len(b)), b...)
				}
			}
			for _, p := range local {
				p.Release()
			}
		default:
			got, err = ReadBlockRange(c.store, docID, start+missFrom, end-missFrom)
		}
		if err != nil {
			return err
		}
		for j, b := range got {
			out[missFrom+j] = b
			if mapped {
				continue // pinned views must not outlive the pin in the LRU
			}
			k := cacheKey{docID: docID, idx: start + missFrom + j}
			c.evictions.Add(c.insert(c.shard(k), k, wantGen, b))
		}
		missFrom = -1
		return nil
	}
	for i := 0; i < count; i++ {
		k := cacheKey{docID: docID, idx: start + i}
		if b := c.shard(k).lookup(k); b != nil {
			c.hits.Add(1)
			if err := flushGap(i); err != nil {
				return nil, err
			}
			out[i] = b
			continue
		}
		c.misses.Add(1)
		if missFrom < 0 {
			missFrom = i
		}
	}
	if err := flushGap(count); err != nil {
		return nil, err
	}
	return out, nil
}

// CommitDelta implements DeltaCommitter when the backing store does:
// passed through, and once the backing store has switched versions the
// document's resident blocks are retired by generation, as a
// whole-document re-put retires them.
func (c *Cache) CommitDelta(d *docenc.DeltaUpdate) (docenc.Header, error) {
	dc, ok := c.store.(DeltaCommitter)
	if !ok {
		return docenc.Header{}, ErrUpdateUnsupported
	}
	h, err := dc.CommitDelta(d)
	if err == nil {
		c.invalidate(d.Header.DocID)
	}
	return h, err
}

// BeginUpdate implements DocUpdater when the backing store does. The
// token's document is remembered so the commit can invalidate it.
func (c *Cache) BeginUpdate(h docenc.Header, baseVersion uint32) (uint64, error) {
	up, ok := c.store.(DocUpdater)
	if !ok {
		return 0, ErrUpdateUnsupported
	}
	token, err := up.BeginUpdate(h, baseVersion)
	if err != nil {
		return 0, err
	}
	c.updDocs.Store(token, h.DocID)
	return token, nil
}

// PutBlocks implements DocUpdater (pass-through; staged blocks are not
// visible to readers, so the cache has nothing to do yet).
func (c *Cache) PutBlocks(token uint64, start int, blocks [][]byte) error {
	up, ok := c.store.(DocUpdater)
	if !ok {
		return ErrUpdateUnsupported
	}
	return up.PutBlocks(token, start, blocks)
}

// CommitUpdate implements DocUpdater: once the backing store has
// atomically switched versions, the document's resident blocks are
// retired by generation exactly as a whole-document re-put would —
// in-flight fills of the superseded version abort on the bumped
// generation, so readers never see mixed-version blocks linger.
//
// The token→document mapping is deleted only after the backing commit
// succeeds: a transient failure (a remote store's network blip) whose
// retry then commits must still find the mapping, or the cache would
// keep serving the pre-update blocks forever.
func (c *Cache) CommitUpdate(token uint64) error {
	up, ok := c.store.(DocUpdater)
	if !ok {
		return ErrUpdateUnsupported
	}
	docID, _ := c.updDocs.Load(token)
	if err := up.CommitUpdate(token); err != nil {
		return err
	}
	c.updDocs.Delete(token)
	if id, ok := docID.(string); ok && id != "" {
		c.invalidate(id)
	}
	return nil
}

// AbortUpdate implements DocUpdater (pass-through).
func (c *Cache) AbortUpdate(token uint64) error {
	up, ok := c.store.(DocUpdater)
	if !ok {
		return ErrUpdateUnsupported
	}
	c.updDocs.Delete(token)
	return up.AbortUpdate(token)
}

// PutRuleSet implements Store (pass-through).
func (c *Cache) PutRuleSet(docID, subject string, version uint32, sealed []byte) error {
	return c.store.PutRuleSet(docID, subject, version, sealed)
}

// RuleSet implements Store (pass-through).
func (c *Cache) RuleSet(docID, subject string) ([]byte, error) {
	return c.store.RuleSet(docID, subject)
}

// ListDocuments implements Store (pass-through).
func (c *Cache) ListDocuments() ([]string, error) {
	return c.store.ListDocuments()
}

var (
	_ Store             = (*Cache)(nil)
	_ BlockRangeReader  = (*Cache)(nil)
	_ DocUpdater        = (*Cache)(nil)
	_ DeltaCommitter    = (*Cache)(nil)
	_ PinnedBlockReader = (*Cache)(nil)
	_ runReader         = (*Cache)(nil)
)
