package dsp

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/workload"
)

func testContainer(t *testing.T, docID string) *docenc.Container {
	t.Helper()
	doc := workload.Agenda(workload.AgendaConfig{Seed: 1, Members: 3, EventsPerMember: 2})
	c, _, err := docenc.Encode(doc, docenc.EncodeOptions{
		DocID: docID, Key: secure.KeyFromSeed(docID),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// storeContract runs the Store interface contract against any
// implementation.
func storeContract(t *testing.T, s Store) {
	t.Helper()
	c1 := testContainer(t, "doc1")
	c2 := testContainer(t, "doc2")
	if err := s.PutDocument(c1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDocument(c2); err != nil {
		t.Fatal(err)
	}

	h, err := s.Header("doc1")
	if err != nil {
		t.Fatal(err)
	}
	if h.DocID != "doc1" || h.PayloadLen != c1.Header.PayloadLen {
		t.Errorf("header changed: %+v", h)
	}
	if _, err := s.Header("nosuch"); err == nil {
		t.Error("unknown document header served")
	}

	blk, err := s.ReadBlock("doc1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(blk) != string(c1.Blocks[0]) {
		t.Error("block bytes changed")
	}
	if _, err := s.ReadBlock("doc1", len(c1.Blocks)); err == nil {
		t.Error("out-of-range block served")
	}
	if _, err := s.ReadBlock("nosuch", 0); err == nil {
		t.Error("unknown document block served")
	}

	if err := s.PutRuleSet("doc1", "alice", 3, []byte("sealed-v3")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRuleSet("doc1", "alice", 2, []byte("sealed-v2")); err == nil {
		t.Error("an honest store must refuse stale rule sets")
	}
	got, err := s.RuleSet("doc1", "alice")
	if err != nil || string(got) != "sealed-v3" {
		t.Fatalf("RuleSet = %q, %v", got, err)
	}
	if _, err := s.RuleSet("doc1", "bob"); err == nil {
		t.Error("unknown subject's rules served")
	}

	ids, err := s.ListDocuments()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "doc1" || ids[1] != "doc2" {
		t.Errorf("ListDocuments = %v", ids)
	}

	// Batched reads must agree with per-block reads.
	run, err := s.ReadBlocks("doc1", 0, len(c1.Blocks))
	if err != nil {
		t.Fatal(err)
	}
	if len(run) != len(c1.Blocks) {
		t.Fatalf("ReadBlocks returned %d blocks, want %d", len(run), len(c1.Blocks))
	}
	for i, b := range run {
		if string(b) != string(c1.Blocks[i]) {
			t.Errorf("batched block %d differs from stored block", i)
		}
	}
	if _, err := s.ReadBlocks("doc1", 1, len(c1.Blocks)); err == nil {
		t.Error("out-of-range batch served")
	}
	// start+count overflowing int must be rejected, not sliced.
	if _, err := s.ReadBlocks("doc1", math.MaxInt64-1, 2); err == nil {
		t.Error("overflowing batch served")
	}
	// A negative range is refused by the store itself: callers reach
	// ReadBlocks directly, with nothing in between to check it.
	if _, err := s.ReadBlocks("doc1", -1, 1); err == nil {
		t.Error("negative start served")
	}
	if _, err := s.ReadBlocks("doc1", 0, -1); err == nil {
		t.Error("negative count served")
	}
	if _, err := s.ReadBlocks("nosuch", 0, 1); err == nil {
		t.Error("unknown document batch served")
	}
	empty, err := s.ReadBlocks("doc1", 0, 0)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch = %v, %v", empty, err)
	}
}

func TestMemStoreContract(t *testing.T) {
	storeContract(t, NewMemStore())
}

func TestTCPStoreContract(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewMemStore())
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	storeContract(t, client)
	if client.BytesRead() == 0 {
		t.Error("client byte accounting recorded nothing")
	}
}

func TestPoolStoreContract(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewMemStore())
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	pool, err := DialPool(l.Addr().String(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 3 {
		t.Fatalf("Size = %d", pool.Size())
	}
	storeContract(t, pool)
	if pool.BytesRead() == 0 {
		t.Error("pool byte accounting recorded nothing")
	}
}

func TestCacheStoreContract(t *testing.T) {
	storeContract(t, NewCache(NewMemStore(), 1<<20))
}

func TestSingleShardStoreContract(t *testing.T) {
	storeContract(t, NewMemStoreShards(1))
}

func TestTCPConcurrentClients(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if err := store.PutDocument(testContainer(t, "doc")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			client, err := Dial(l.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer client.Close()
			for j := 0; j < 50; j++ {
				if _, err := client.ReadBlock("doc", j%3); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCacheHitMissInvalidation(t *testing.T) {
	mem := NewMemStore()
	cache := NewCache(mem, 1<<20)
	c1 := testContainer(t, "doc")
	if err := cache.PutDocument(c1); err != nil {
		t.Fatal(err)
	}

	first, err := cache.ReadBlock("doc", 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cache.ReadBlock("doc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("cached block differs from fetched block")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats after repeat read = %+v, want 1 hit / 1 miss", st)
	}
	if st.Blocks != 1 || st.Bytes != int64(len(first)) {
		t.Errorf("residency = %d blocks / %d bytes, want 1 / %d", st.Blocks, st.Bytes, len(first))
	}

	// Re-publishing the document must invalidate its cached blocks.
	doc := workload.Agenda(workload.AgendaConfig{Seed: 2, Members: 4, EventsPerMember: 3})
	c2, _, err := docenc.Encode(doc, docenc.EncodeOptions{
		DocID: "doc", Key: secure.KeyFromSeed("doc-v2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.PutDocument(c2); err != nil {
		t.Fatal(err)
	}
	got, err := cache.ReadBlock("doc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(c2.Blocks[0]) {
		t.Error("cache served a stale block after re-publish")
	}
}

func TestCacheBatchedReadFillsGaps(t *testing.T) {
	cache := NewCache(NewMemStore(), 1<<20)
	c := testContainer(t, "doc")
	if err := cache.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	n := len(c.Blocks)
	if n < 3 {
		t.Fatalf("workload produced only %d blocks", n)
	}
	// Warm one interior block, then batch the whole range: the warm block
	// is a hit, the two gaps around it are batched misses.
	if _, err := cache.ReadBlock("doc", 1); err != nil {
		t.Fatal(err)
	}
	run, err := cache.ReadBlocks("doc", 0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range run {
		if string(b) != string(c.Blocks[i]) {
			t.Errorf("batched block %d differs", i)
		}
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != int64(n) {
		t.Errorf("stats = %+v, want 1 hit / %d misses", st, n)
	}
	if st.HitRate() <= 0 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
	// The whole document is now resident.
	st2 := cache.Stats()
	if st2.Blocks != n {
		t.Errorf("resident blocks = %d, want %d", st2.Blocks, n)
	}
}

func TestCacheEviction(t *testing.T) {
	mem := NewMemStore()
	doc := workload.RandomDocument(workload.TreeConfig{
		Seed: 7, Elements: 600, MaxDepth: 7, MaxFanout: 5, TextProb: 0.7,
	})
	c, _, err := docenc.Encode(doc, docenc.EncodeOptions{
		DocID: "doc", Key: secure.KeyFromSeed("doc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	if len(c.Blocks) < 2*DefaultShards {
		t.Fatalf("workload produced only %d blocks; eviction needs > %d", len(c.Blocks), 2*DefaultShards)
	}
	// Budget one block per shard: with blocks spread over the shards by
	// (doc, idx), the pigeonhole guarantees evictions.
	cache := NewCache(mem, int64(len(c.Blocks[0]))*int64(DefaultShards))
	for i := 0; i < len(c.Blocks); i++ {
		if _, err := cache.ReadBlock("doc", i); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions despite %d blocks through a %d-block budget", len(c.Blocks), DefaultShards)
	}
	if st.Blocks > 2*DefaultShards {
		t.Errorf("%d blocks resident, budget is ~%d", st.Blocks, DefaultShards)
	}
}

func TestPoolServerErrorKeepsConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewMemStore())
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	pool, err := DialPool(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	_, err = pool.Header("nosuch")
	var srvErr ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("want ServerError, got %v", err)
	}
	// The single pooled connection must still be serviceable.
	if err := pool.PutDocument(testContainer(t, "doc")); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ReadBlock("doc", 0); err != nil {
		t.Fatal(err)
	}
	// A local validation error must not cost the pool its connection.
	if _, err := pool.ReadBlocks("doc", -1, 1); err == nil {
		t.Error("negative range served")
	}
	if _, err := pool.ReadBlock("doc", 0); err != nil {
		t.Fatalf("connection dropped after a local validation error: %v", err)
	}
	// Byte accounting survives Close.
	before := pool.BytesRead()
	if before == 0 {
		t.Error("no bytes recorded before Close")
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pool.BytesRead(); got < before {
		t.Errorf("BytesRead fell from %d to %d across Close", before, got)
	}
}

// slowStore delays block reads so shutdown can race an in-flight request.
type slowStore struct {
	*MemStore
	started chan struct{}
	done    atomic.Bool
}

func (s *slowStore) ReadBlock(docID string, idx int) ([]byte, error) {
	close(s.started)
	time.Sleep(100 * time.Millisecond)
	b, err := s.MemStore.ReadBlock(docID, idx)
	s.done.Store(true)
	return b, err
}

func TestServerCloseWaitsForInflight(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := &slowStore{MemStore: NewMemStore(), started: make(chan struct{})}
	c := testContainer(t, "doc")
	if err := store.MemStore.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	go func() { _ = srv.Serve(l) }()

	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	type reply struct {
		b   []byte
		err error
	}
	got := make(chan reply, 1)
	go func() {
		b, err := client.ReadBlock("doc", 0)
		got <- reply{b, err}
	}()

	<-store.started
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !store.done.Load() {
		t.Error("Close returned while a request was still executing")
	}
	// The drain delivers the in-flight reply before the connection goes.
	if r := <-got; r.err != nil || string(r.b) != string(c.Blocks[0]) {
		t.Errorf("in-flight read across Close = %d bytes, %v; want its block", len(r.b), r.err)
	}
	// Close must be idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPooledConcurrentTraffic drives the full concurrent stack — pooled
// client, pipelined server, sharded store, LRU cache — from many
// goroutines; run under -race it is the data-race net for the DSP tier.
func TestPooledConcurrentTraffic(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewCache(NewMemStore(), 1<<20)
	docs := []string{"doc-a", "doc-b", "doc-c"}
	blocks := make(map[string]int, len(docs))
	for _, id := range docs {
		c := testContainer(t, id)
		if err := store.PutDocument(c); err != nil {
			t.Fatal(err)
		}
		blocks[id] = len(c.Blocks)
	}
	srv := NewServerConfig(store, ServerConfig{Workers: 8, PipelineDepth: 8})
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	pool, err := DialPool(l.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := docs[g%len(docs)]
			n := blocks[id]
			for i := 0; i < 40; i++ {
				switch i % 3 {
				case 0:
					if _, err := pool.ReadBlock(id, i%n); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := pool.ReadBlocks(id, 0, n); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := pool.Header(id); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Error("concurrent traffic never hit the cache")
	}
	if pool.BytesRead() == 0 {
		t.Error("pool byte accounting recorded nothing")
	}
}

func TestMemStoreTamperHelpers(t *testing.T) {
	s := NewMemStore()
	if err := s.PutDocument(testContainer(t, "doc")); err != nil {
		t.Fatal(err)
	}
	orig, _ := s.ReadBlock("doc", 1)
	origCopy := append([]byte(nil), orig...)
	if err := s.Tamper("doc", 1, 0); err != nil {
		t.Fatal(err)
	}
	after, _ := s.ReadBlock("doc", 1)
	if string(after) == string(origCopy) {
		t.Error("Tamper changed nothing")
	}
	if err := s.Tamper("doc", 999, 0); err == nil {
		t.Error("tampering a missing block must fail")
	}
	if err := s.SwapBlocks("doc", 0, 2); err != nil {
		t.Fatal(err)
	}
	b0, _ := s.ReadBlock("doc", 0)
	if string(b0) == string(origCopy) && false {
		t.Log("(swap result depends on content)")
	}
	if err := s.SwapBlocks("doc", 0, 999); err == nil {
		t.Error("swapping a missing block must fail")
	}
}

func TestPutDocumentValidation(t *testing.T) {
	s := NewMemStore()
	if err := s.PutDocument(nil); err == nil {
		t.Error("nil container accepted")
	}
	c := testContainer(t, "doc")
	c.Blocks = c.Blocks[:len(c.Blocks)-1]
	if err := s.PutDocument(c); err == nil {
		t.Error("geometry mismatch accepted")
	}
}
