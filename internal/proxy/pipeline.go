package proxy

import (
	"repro/internal/dsp"
	"repro/internal/soe"
)

// The pipelined pull path splits the terminal in two stages connected by
// a bounded double buffer:
//
//	prefetch+decrypt ──runCh──▶ feed/evaluate
//	     ▲                          │
//	     └──────────wantCh──────────┘ (demand jumps only)
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
// The buffer is bounded by construction: one run held by the consumer,
// one in the channel, one in flight at the prefetcher. Runs own pooled
// resources (plaintext run buffers, client frames), so every path that
// drops a run — stale generation, redirect, shutdown — must Release it,
// exactly once: a released run returns to the card session that prepared
// it and is filled again by that session's next PrepareRun.

// fetchRun is one speculative batch pulled from the store and decrypted
// ahead of demand.
type fetchRun struct {
	gen   int
	start int
	count int
	prep  *soe.PreparedRun
	err   error
}

// jump redirects the prefetcher to a new demand point.
type jump struct {
	gen int
	idx int
	// sure is the session's contiguity bound (soe.Session.NeedRun): the
	// run of blocks from idx guaranteed to be consumed. When it exceeds
	// the prefetch depth the prefetcher may batch harder, because no
	// block of the run can turn into waste.
	sure int
}

// prefetchTotals is what the prefetcher hands back when it exits; it is
// read by the consumer only after pfDone is closed (happens-before via
// the channel close), so plain ints are race-free.
type prefetchTotals struct {
	blocks int // blocks pulled from the store, useful and wasted alike
	bytes  int64
}

// frameReader is the store capability the in-place decrypt path needs:
// batched reads into caller-owned pooled buffers.
type frameReader interface {
	ReadBlocksFrame(docID string, start, count int) (*dsp.BlockFrame, error)
}

// runLen picks the next run length: the configured depth k, stretched up
// to twice that when the session's contiguity bound guarantees the
// blocks will be consumed (waste-free, so the only limit is buffer
// memory), and always clamped to the payload geometry.
func runLen(k, sure, remaining int) int {
	n := k
	if sure > n {
		n = sure
		if n > 2*k {
			n = 2 * k
		}
	}
	if n > remaining {
		n = remaining
	}
	return n
}

// runPipelined drives the session through the two-stage pipeline.
func (s *Session) runPipelined(sess *soe.Session, docID string, numBlocks int, col *Collector, stats *ResultStats) (err error) {
	next, sure := sess.NeedRun()
	if next < 0 {
		return nil // nothing demanded (degenerate payload)
	}

	var (
		wantCh = make(chan jump)
		runCh  = make(chan fetchRun, 1)
		done   = make(chan struct{})
		pfDone = make(chan struct{})
		totals prefetchTotals
	)
	go s.prefetchLoop(sess, docID, numBlocks, wantCh, runCh, done, pfDone, &totals)

	fed := 0
	var (
		cur  fetchRun // have==true: the current fresh-generation run
		have bool
	)
	defer func() {
		close(done)
		<-pfDone
		// Return every outstanding pooled resource: the held run and any
		// run the prefetcher managed to buffer before pfDone.
		cur.prep.Release()
		for {
			select {
			case r := <-runCh:
				r.prep.Release()
			default:
				stats.BlocksFetched += totals.blocks
				stats.BytesFetched += totals.bytes
				stats.BlocksWasted += totals.blocks - fed
				return
			}
		}
	}()

	gen := 0
	wantCh <- jump{gen: gen, idx: next, sure: sure}

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
				wantCh <- jump{gen: gen, idx: idx, sure: sure}
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
			r := <-runCh
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
		if err := feedPrepared(sess, col, idx, cur.prep); err != nil {
			return err
		}
	}
}

// prefetchLoop is the fetch+decrypt stage: it walks forward from the
// latest demand point in batched runs, decrypts each run through the
// session's prepared path, parks when it overruns the payload and
// restarts whenever the consumer redirects it.
func (s *Session) prefetchLoop(sess *soe.Session, docID string, numBlocks int, wantCh chan jump, runCh chan fetchRun, done chan struct{}, pfDone chan struct{}, totals *prefetchTotals) {
	defer close(pfDone)
	k := s.prefetch
	fr, _ := s.store.(frameReader)
	cur, gen, sure := -1, 0, 1
	for {
		if cur < 0 || cur >= numBlocks {
			select {
			case j := <-wantCh:
				cur, gen, sure = j.idx, j.gen, j.sure
			case <-done:
				return
			}
			continue
		}
		n := runLen(k, sure, numBlocks-cur)

		// Fetch the run; through the frame path when the store offers it
		// (the ciphertext then lives in a pooled buffer this pipeline
		// owns, so decryption can happen in place).
		var (
			blocks  [][]byte
			owned   bool
			release func()
			err     error
		)
		if fr != nil {
			var f *dsp.BlockFrame
			if f, err = fr.ReadBlocksFrame(docID, cur, n); err == nil {
				blocks, owned, release = f.Blocks(), true, f.Release
			}
		} else {
			blocks, err = dsp.ReadBlockRange(s.store, docID, cur, n)
		}
		for _, b := range blocks {
			totals.blocks++
			totals.bytes += int64(len(b))
		}

		// Decrypt off the consumer's critical path. Per-block integrity
		// failures ride inside the prepared run and surface only if the
		// card actually demands the bad block.
		var prep *soe.PreparedRun
		if err == nil {
			prep, err = sess.PrepareRun(cur, blocks, owned, release)
			if err != nil && release != nil {
				release()
			}
		}

		select {
		case runCh <- fetchRun{gen: gen, start: cur, count: len(blocks), prep: prep, err: err}:
			if err != nil {
				cur = -1 // park; the consumer aborts on the error
				continue
			}
			cur += len(blocks)
			if sure -= len(blocks); sure < 1 {
				sure = 1
			}
		case j := <-wantCh:
			// The run was fetched under the old demand and is never
			// delivered; it stays counted in totals (waste).
			prep.Release()
			cur, gen, sure = j.idx, j.gen, j.sure
		case <-done:
			prep.Release()
			return
		}
	}
}
