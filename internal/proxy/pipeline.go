package proxy

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/secure"
	"repro/internal/soe"
)

// The pipelined pull path splits the terminal in two stages connected by
// a bounded double buffer:
//
//	prefetch+decrypt ──runCh──▶ feed/evaluate
//	     ▲                          │
//	     └──────────wantCh──────────┘ (demand jumps, and the stop)
//
// The prefetcher speculatively fetches contiguous runs of blocks — one
// batched store round trip per run — and decrypts each run through the
// card's shared cipher context (soe.Session.PrepareRun: MAC verify and
// CTR XOR fanned across a small worker pool) before handing it over, so
// the consumer's critical path is pure feed/evaluate. When the store
// supports pooled frames (dsp.Client / dsp.Pool) the run is decrypted
// in place inside the frame buffer: the block bytes are written by the
// store exactly once and never copied again until the session's source
// window absorbs the plaintext. As long as the card consumes linearly
// the two stages overlap perfectly and no demand signalling is needed;
// when the card's skip index jumps the wanted offset beyond the
// buffered data, the consumer bumps a generation counter and redirects
// the prefetcher, and every block fetched under the old generation is
// accounted as speculation waste (ResultStats.BlocksWasted). Meter
// determinism survives the speculation: PrepareRun charges nothing, and
// FeedPrepared charges exactly what the serial Feed would, block by
// consumed block.
//
// Readahead is adaptive, the way a file system's is: the first run, and
// the first after every redirect, is the configured depth — a card that
// has just skipped is likely to skip again, and what is fetched beyond a
// skip target is waste. Every run handed over without a redirect in
// between doubles the next one, up to readaheadGrowth times the depth
// and readaheadBytes of stored data, so a card that reads on pays a
// handful of store round trips for a document instead of one per depth.
// A session that cannot skip (soe.Session.NeedRun's bound covers the
// remainder) starts at the limit: none of its blocks can turn into waste.
//
// The buffer is bounded by construction: one run held by the consumer,
// one in the channel, one in flight at the prefetcher. Runs own pooled
// resources (plaintext run buffers, client frames), so every path that
// drops a run — stale generation, redirect, shutdown — must Release it,
// exactly once: a released run returns to the card session that prepared
// it and is filled again by that session's next PrepareRun.
//
// The channels belong to the Session and serve query after query; the
// prefetcher is a goroutine of the query. A resident one would have to be
// stopped by somebody: a pooled session parked between queries would hold
// a goroutine.

const (
	// readaheadGrowth bounds a run at this many times the configured
	// depth: three doublings. Past that a run is long enough that the
	// per-run cost (a round trip, a PrepareRun fan-out, two channel
	// hand-offs) no longer shows against the blocks it carries, while
	// what a late skip wastes keeps growing.
	readaheadGrowth = 8
	// readaheadBytes bounds a grown run's stored bytes, whatever the
	// block size: with three runs alive per session, what a session pins
	// in buffers and frames stays under 200 KiB.
	readaheadBytes = 64 << 10
)

// readaheadLimit is the longest run the prefetcher grows to, in blocks of
// blockPlain plaintext bytes. The configured depth is always allowed: it
// is what the first run is, by the caller's choice.
func readaheadLimit(depth, blockPlain int) int {
	byBytes := readaheadBytes / (blockPlain + secure.MACLen)
	if depth >= byBytes {
		return depth
	}
	return min(readaheadGrowth*depth, byBytes)
}

// fetchRun is one speculative batch pulled from the store and decrypted
// ahead of demand.
type fetchRun struct {
	gen   int
	start int
	count int
	prep  *soe.PreparedRun
	err   error
}

// jump redirects the prefetcher to a new demand point; one to stopIdx
// ends it.
type jump struct {
	gen int
	idx int
	// sure is the session's contiguity bound (soe.Session.NeedRun): the
	// run of blocks from idx guaranteed to be consumed, which the
	// prefetcher may fetch at once however little it has seen of the
	// card's behaviour, because no block of it can turn into waste.
	sure int
}

const stopIdx = -1

// prefetchTotals is what the prefetcher reports as it exits.
type prefetchTotals struct {
	blocks int // blocks pulled from the store, useful and wasted alike
	bytes  int64
}

// pipeline is the plumbing between the two stages, made once per Session
// and left empty by every query: signals are sent, nothing is closed.
type pipeline struct {
	wantCh chan jump
	runCh  chan fetchRun
	doneCh chan prefetchTotals // the prefetcher's last word
	// list is the prefetcher's list of a listReader's blocks, read only
	// while the run is prepared.
	list [][]byte
}

// frameReader is the store capability the in-place decrypt path needs:
// batched reads into caller-owned pooled buffers.
type frameReader interface {
	ReadBlocksFrame(docID string, start, count int) (*dsp.BlockFrame, error)
}

// listReader is the capability of a store whose blocks are its own shared
// memory (a cache): a read appends them to the pipeline's kept list
// instead of returning a list of its own, and they are decrypted out of
// place.
type listReader interface {
	ReadBlocksInto(dst [][]byte, docID string, start, count int) ([][]byte, error)
}

// runPipelined drives the session through the two-stage pipeline.
func (s *Session) runPipelined(sess *soe.Session, docID string, numBlocks, blockPlain int, stats *ResultStats) (err error) {
	next, sure := sess.NeedRun()
	if next < 0 {
		return nil // nothing demanded (degenerate payload)
	}

	if s.pipe == nil {
		s.pipe = &pipeline{
			wantCh: make(chan jump),
			runCh:  make(chan fetchRun, 1),
			doneCh: make(chan prefetchTotals),
		}
	}
	p := s.pipe
	go s.prefetchLoop(sess, docID, numBlocks, readaheadLimit(s.prefetch, blockPlain))

	fed := 0
	var (
		cur  fetchRun // have==true: the current fresh-generation run
		have bool
	)
	defer func() {
		p.wantCh <- jump{idx: stopIdx}
		totals := <-p.doneCh
		// Return every outstanding pooled resource: the held run and the
		// run the prefetcher may have buffered before it stopped.
		cur.prep.Release()
		select {
		case r := <-p.runCh:
			r.prep.Release()
		default:
		}
		stats.BlocksFetched += totals.blocks
		stats.BytesFetched += totals.bytes
		stats.BlocksWasted += totals.blocks - fed
	}()

	gen := 0
	p.wantCh <- jump{gen: gen, idx: next, sure: sure}

	for {
		idx := sess.NeedBlock()
		if idx < 0 {
			return nil
		}
		// Obtain block idx from the buffer, pulling runs and redirecting
		// the prefetcher as needed. Demand is strictly forward (the
		// source never re-requests a fed block), so idx >= cur.start
		// whenever a fresh run is held.
		for {
			if have && idx < cur.start+cur.count {
				break
			}
			if have && idx > cur.start+cur.count {
				// The demand skipped past this run and anything
				// contiguously in flight behind it: redirect.
				gen++
				_, sure = sess.NeedRun()
				p.wantCh <- jump{gen: gen, idx: idx, sure: sure}
				cur.prep.Release()
				cur, have = fetchRun{}, false
				continue
			}
			// No run yet, a stale run was dropped, or idx is exactly the
			// next contiguous block: take the next run. A released run
			// goes back to the card session, which may hand it to the
			// prefetcher at once, so it is forgotten here before anything
			// else happens.
			cur.prep.Release() // fully consumed predecessor, if any
			cur, have = fetchRun{}, false
			r := <-p.runCh
			if r.gen != gen {
				// A stale-generation run is discarded speculation; its
				// blocks stay counted in totals and therefore in the waste.
				r.prep.Release()
				continue
			}
			if r.err != nil {
				return r.err
			}
			cur, have = r, true
		}
		fed++
		if _, err := sess.FeedPrepared(cur.prep, idx); err != nil {
			return err
		}
	}
}

// prefetchLoop is the fetch+decrypt stage of one query: it walks forward
// from the latest demand point in batched runs that grow up to limit
// blocks while nothing redirects it, decrypts each run through the
// session's prepared path, parks when it overruns the payload, restarts
// at the configured depth whenever the consumer redirects it, and exits,
// reporting what it fetched, when the consumer says stop.
func (s *Session) prefetchLoop(sess *soe.Session, docID string, numBlocks, limit int) {
	p := s.pipe
	fr, _ := s.store.(frameReader)
	lr, _ := s.store.(listReader)
	var totals prefetchTotals
	cur, gen, sure, ahead := -1, 0, 1, s.prefetch
	redirect := func(j jump) (stop bool) {
		if j.idx == stopIdx {
			p.doneCh <- totals
			return true
		}
		cur, gen, sure, ahead = j.idx, j.gen, j.sure, s.prefetch
		return false
	}
	for {
		if cur < 0 || cur >= numBlocks {
			if redirect(<-p.wantCh) {
				return
			}
			continue
		}
		n := min(max(ahead, min(sure, limit)), numBlocks-cur)

		// Fetch the run; through the frame path when the store offers it
		// (the ciphertext then lives in a pooled buffer this pipeline
		// owns, so decryption can happen in place).
		var (
			blocks  [][]byte
			owned   bool
			release interface{ Release() }
			err     error
		)
		switch {
		case fr != nil:
			var f *dsp.BlockFrame
			if f, err = fr.ReadBlocksFrame(docID, cur, n); err == nil {
				blocks, owned, release = f.Blocks(), true, f
			}
		case lr != nil:
			p.list, err = lr.ReadBlocksInto(p.list[:0], docID, cur, n)
			blocks = p.list
		default:
			blocks, err = s.store.ReadBlocks(docID, cur, n)
		}
		for _, b := range blocks {
			totals.blocks++
			totals.bytes += int64(len(b))
		}
		// A store that answers with no block would have this loop ask
		// again for ever, and one that answers with more than were asked
		// for is not answering the question; a short run is fine.
		if err == nil && (len(blocks) < 1 || len(blocks) > n) {
			err = fmt.Errorf("proxy: store answered a read of %d blocks from %d of %q with %d", n, cur, docID, len(blocks))
		}

		// Decrypt off the consumer's critical path. Per-block integrity
		// failures ride inside the prepared run and surface only if the
		// card actually demands the bad block.
		var prep *soe.PreparedRun
		if err == nil {
			prep, err = sess.PrepareRun(cur, blocks, owned, release)
		}
		if err != nil && release != nil {
			release.Release()
		}
		clear(p.list) // prepared: the run holds its plaintext, not these

		select {
		case p.runCh <- fetchRun{gen: gen, start: cur, count: len(blocks), prep: prep, err: err}:
			if err != nil {
				cur = -1 // park; the consumer aborts on the error
				continue
			}
			cur += len(blocks)
			sure = max(sure-len(blocks), 1)
			if ahead < limit { // a depth beyond the limit stays what it is
				ahead = min(2*ahead, limit)
			}
		case j := <-p.wantCh:
			// The run was fetched under the old demand and is never
			// delivered; it stays counted in totals (waste).
			prep.Release()
			if redirect(j) {
				return
			}
		}
	}
}
