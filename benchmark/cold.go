package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/secure"
	"repro/internal/workload"
)

// storeCold is the untrusted tier alone: nproc store clients scanning
// large checkpointed documents front to back in batched reads. The
// working set is four times dspd's block cache and mapped fills bypass
// the cache anyway, so every read goes cache miss → FileStore mmap tier
// → sendfile; no card, session or gateway code runs.
type storeCold struct {
	seed    int64
	sz      sizes
	clients int
	// docs are the published ciphertext containers: the store's input
	// and the bytes a sampled read is compared with.
	docs []*docenc.Container

	rig   *rig
	pool  *dsp.Pool
	scans []*scanner
}

// verifyEvery is the sampling period of the byte comparison.
const verifyEvery = 64

func newStoreCold(seed int64, sz sizes, clients int) (instance, error) {
	c := &storeCold{seed: seed, sz: sz, clients: clients}
	for d := 0; d < sz.coldDocs; d++ {
		id := fmt.Sprintf("stream-%02d", d)
		tree := workload.MediaStream(workload.StreamConfig{
			Seed: seed*1000 + int64(d), Segments: sz.coldSegments, PayloadBytes: sz.coldPayload,
		})
		con, _, err := docenc.Encode(tree, docenc.EncodeOptions{
			DocID: id, Version: 1, Key: secure.KeyFromSeed(id), BlockPlain: 4096,
		})
		if err != nil {
			return nil, err
		}
		c.docs = append(c.docs, con)
	}
	return c, nil
}

// scanner is one client's position: it reads a seed-picked document
// front to back in runs of coldRun blocks, then picks the next.
type scanner struct {
	c     *storeCold
	rng   *rand.Rand
	doc   int
	start int
	reads int
}

func (c *storeCold) scanner(id int) *scanner {
	s := &scanner{c: c, rng: rand.New(rand.NewSource(c.seed*104729 + int64(id)))}
	s.doc = s.rng.Intn(len(c.docs))
	return s
}

// next returns the coming read and advances past it.
func (s *scanner) next() (doc, start, count int) {
	n := len(s.c.docs[s.doc].Blocks)
	doc, start = s.doc, s.start
	count = min(s.c.sz.coldRun, n-start)
	if s.start += count; s.start >= n {
		s.doc, s.start = s.rng.Intn(len(s.c.docs)), 0
	}
	s.reads++
	return doc, start, count
}

// compare checks the blocks of one read against the published bytes.
func (c *storeCold) compare(doc, start int, got [][]byte) error {
	want := c.docs[doc].Blocks[start : start+len(got)]
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("%s block %d differs from the published ciphertext", c.docs[doc].Header.DocID, start+i)
		}
	}
	return nil
}

// read is the timed operation: one batched read over the pool into a
// pooled frame. Every verifyEvery-th read is byte-compared before its
// frame goes back.
func (s *scanner) read(pool *dsp.Pool) (int64, func() error, error) {
	doc, start, count := s.next()
	f, err := pool.ReadBlocksFrame(s.c.docs[doc].Header.DocID, start, count)
	if err != nil {
		return 0, nil, err
	}
	var n int64
	for _, b := range f.Blocks() {
		n += int64(len(b))
	}
	if len(f.Blocks()) != count {
		f.Release()
		return 0, nil, fmt.Errorf("read of %d blocks returned %d", count, len(f.Blocks()))
	}
	if s.reads%verifyEvery != 0 {
		f.Release()
		return n, nil, nil
	}
	return n, func() error {
		defer f.Release()
		return s.c.compare(doc, start, f.Blocks())
	}, nil
}

func (c *storeCold) setup(dir string) error {
	r, err := newStoreTier(dir, rigConfig{dspCacheBytes: c.sz.coldCacheBytes})
	if err != nil {
		return err
	}
	c.rig = r
	if c.pool, err = dsp.DialPool(r.dspAddr, c.clients); err != nil {
		return err
	}
	for _, con := range c.docs {
		if err := c.pool.PutDocument(con); err != nil {
			return fmt.Errorf("publishing %s: %w", con.Header.DocID, err)
		}
	}
	// The documents move from the log to the checkpoint images, which is
	// where a store that has been up for a while serves them from.
	if err := r.fs.Checkpoint(); err != nil {
		return err
	}
	c.scans = nil
	for i := 0; i < c.clients; i++ {
		c.scans = append(c.scans, c.scanner(i))
	}
	return c.warmUp()
}

// warmUp reads every document once, shared among the clients, with every
// read compared: the first pass over fresh mappings is not
// representative, and a wrong byte should fail set-up, not a sample.
func (c *storeCold) warmUp() error {
	var wg sync.WaitGroup
	errs := make([]error, c.clients)
	for i := 0; i < c.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := i; d < len(c.docs); d += c.clients {
				con := c.docs[d]
				for start := 0; start < len(con.Blocks); start += c.sz.coldRun {
					count := min(c.sz.coldRun, len(con.Blocks)-start)
					f, err := c.pool.ReadBlocksFrame(con.Header.DocID, start, count)
					if err == nil {
						err = c.compare(d, start, f.Blocks())
						f.Release()
					}
					if err != nil {
						errs[i] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (c *storeCold) run(d time.Duration) (*window, error) {
	var cs []*client
	for _, s := range c.scans {
		cs = append(cs, &client{op: func() (int64, func() error, error) { return s.read(c.pool) }})
	}
	return runClients(cs, d), nil
}

func (c *storeCold) close() error {
	var err error
	if c.pool != nil {
		err = c.pool.Close()
		c.pool = nil
	}
	if c.rig != nil {
		err = errors.Join(err, c.rig.close())
		c.rig = nil
	}
	return err
}

// layers measures the read path from outside: counter deltas over a
// closed-loop window, then one client reading the same seeded list at
// three depths — FileStore, Cache over it, pool over the wire.
func (c *storeCold) layers(dir string, d time.Duration, tr *tracer) (map[string]float64, *window, error) {
	if err := c.setup(dir); err != nil {
		_ = c.close()
		return nil, nil, err
	}
	defer c.close()

	cache0, fs0 := c.rig.dspCache.Stats(), c.rig.fs.Stats()
	w, _ := c.run(d / 4)
	m := storeCounters(cache0, c.rig.dspCache.Stats(), fs0, c.rig.fs.Stats(), w.bytes)

	// Untraced single-client pass: the reference the traced pass's
	// overhead and unattributed share are taken against.
	one := c.scanner(c.clients)
	plain := runClients([]*client{{op: func() (int64, func() error, error) { return one.read(c.pool) }}}, d/4)
	w.absorb(plain)
	m["dsp.read_allocs_per_op"] = ratio(float64(plain.mallocs), float64(plain.ops))

	// Traced pass: the wire read, then the same ranges straight from the
	// cache, then straight from the durable store, pins released.
	type readOp struct{ doc, start, count int }
	list := c.scanner(c.clients + 1)
	reads := make([]readOp, c.sz.ladderOps)
	for i := range reads {
		reads[i].doc, reads[i].start, reads[i].count = list.next()
	}
	id := func(i int) string { return c.docs[reads[i].doc].Header.DocID }
	var pins []dsp.BlockPin
	pinned := func(s dsp.PinnedBlockReader) func(i, _, _ int) error {
		return func(i, _, _ int) error {
			_, _, err := s.ReadBlocksPinned(id(i), reads[i].start, reads[i].count, &pins)
			for _, p := range pins {
				p.Release()
			}
			pins = pins[:0]
			return err
		}
	}
	climb(tr, 0, len(reads), []rung{
		{name: "dsp.wire:Pool.ReadBlocksFrame", parent: -1, call: func(i, _, _ int) error {
			f, err := c.pool.ReadBlocksFrame(id(i), reads[i].start, reads[i].count)
			if err == nil {
				f.Release()
			}
			return err
		}},
		{name: "dsp.cache:Cache.ReadBlocksPinned", parent: 0, call: pinned(c.rig.dspCache)},
		{name: "dsp.filestore:FileStore.ReadBlocksPinned", parent: 1, call: pinned(c.rig.fs)},
	}, w)
	total, self := tr.perTrace()
	m["dsp.filestore_read_us"] = us(medianDur(total["dsp.filestore"]))
	m["dsp.cache_read_us"] = us(medianDur(total["dsp.cache"]))
	m["dsp.wire_self_us"] = us(medianDur(self["dsp.wire"]))
	traceClosure(m, plain.lat.pct(50), medianDur(total["dsp.wire"]), self, []string{"dsp.wire", "dsp.cache", "dsp.filestore"})
	return m, w, nil
}
