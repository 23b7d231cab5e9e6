package main

import (
	"maps"
	"runtime"
	"time"

	"repro/internal/docenc"
	"repro/internal/dsp"
)

// fetchBase reads the stored version of document d from store: what a
// re-publication diffs against.
func (w *writer) fetchBase(store dsp.Store, d int) (*docenc.Container, error) {
	id := w.corpus.docIDs[d]
	h, err := store.Header(id)
	if err != nil {
		return nil, err
	}
	blocks, err := dsp.ReadBlockRange(store, id, 0, h.NumBlocks())
	if err != nil {
		return nil, err
	}
	return &docenc.Container{Header: h, Blocks: blocks}, nil
}

// diff applies the next edit to document d and encodes it as a delta
// against base.
func (w *writer) diff(d int, base *docenc.Container) (*docenc.DeltaUpdate, error) {
	w.editors[d].next()
	w.attempted[d]++
	delta, _, err := docenc.DiffEncode(w.editors[d].tree, w.corpus.encodeOptions(d), base)
	return delta, err
}

// apply commits a delta of document d through store's update handshake.
func (w *writer) apply(store dsp.Store, d int, delta *docenc.DeltaUpdate) error {
	if err := dsp.ApplyDelta(store, delta); err != nil {
		return err
	}
	w.acked[d] = delta.Header.Version
	w.commits++
	w.deltaBytes += delta.BytesChanged
	return nil
}

// republishLayers are the layers of the commit path, outermost first.
var republishLayers = []string{"proxy", "dsp.wire_read", "docenc", "dsp.wire_commit", "dsp.store"}

// layers measures republish_mix from outside: the daemons' and the
// store's counters over a window of the mix itself, a lone writer for
// reference, the commit ladder, and a reopen of the store.
func (m *republishMix) layers(dir string, d time.Duration, tr *tracer) (map[string]float64, *window, error) {
	if err := m.setup(dir); err != nil {
		_ = m.close()
		return nil, nil, err
	}
	defer m.close()
	out := make(map[string]float64)
	wr := m.writer

	snap0, cache0, fs0 := m.rig.gwSrv.Snapshot(), m.rig.dspCache.Stats(), m.rig.fs.Stats()
	commits0, delta0 := wr.commits, wr.deltaBytes
	watch := watchCheckpoints(dir)
	w := m.mix(d / 4)
	images := watch.total()
	maps.Copy(out, gatewayCounters(snap0, m.rig.gwSrv.Snapshot()))
	maps.Copy(out, commitCounters(fs0, m.rig.fs.Stats(), wr.commits-commits0, wr.deltaBytes-delta0, images))
	out["dsp.cache_hit_ratio"] = hitRatio(cache0, m.rig.dspCache.Stats())
	var queries, torn int64
	for _, r := range m.readers {
		queries += r.queries
		torn += r.tornReads
	}
	tail, _ := w.side.tail()
	out["republish.query_p50_ms"] = ms(w.side.pct(50))
	out["republish.query_p99_ms"] = ms(tail)
	out["republish.queries_per_s"] = ratio(float64(len(w.side)), w.samples[len(w.samples)-1].at.Seconds())
	out["republish.torn_read_ratio"] = ratio(float64(torn), float64(queries))

	// From here on the writer is alone: the readers' connections idle.
	plain := runClients([]*client{wr.client()}, d/8)
	w.absorb(plain)

	docs := len(m.corpus.docIDs)
	base := make([]*docenc.Container, docs)
	delta := make([]*docenc.DeltaUpdate, docs)
	prepare := func(store dsp.Store) func(i int) error {
		return func(i int) (err error) {
			k := i % docs
			if base[k], err = wr.fetchBase(store, k); err == nil {
				delta[k], err = wr.diff(k, base[k])
			}
			return err
		}
	}
	// One round commits every document once at every depth; a round is
	// the unit because a delta only applies to the version it was
	// diffed from. The in-process rung goes through dspd's cache, as the
	// server's dispatch does, so that the cache sees the commit.
	rungs := []rung{
		{name: "proxy:Publisher.Republish", parent: -1, call: func(i, _, _ int) error { return wr.commit(i % docs) }},
		{name: "dsp.wire_read:Pool.ReadBlocks", parent: 0, call: func(i, _, _ int) (err error) {
			base[i%docs], err = wr.fetchBase(wr.pool, i%docs)
			return err
		}},
		{name: "docenc:DiffEncode", parent: 0, call: func(i, _, _ int) (err error) {
			delta[i%docs], err = wr.diff(i%docs, base[i%docs])
			return err
		}},
		{name: "dsp.wire_commit:ApplyDelta", parent: 0, call: func(i, _, _ int) error {
			return wr.apply(wr.pool, i%docs, delta[i%docs])
		}},
		{name: "dsp.store:ApplyDelta", parent: 3, before: prepare(m.rig.dspCache), call: func(i, _, _ int) error {
			return wr.apply(m.rig.dspCache, i%docs, delta[i%docs])
		}},
	}
	rounds := max(1, m.corpus.sz.ladderOps/docs)
	for r := 0; r < rounds; r++ {
		climb(tr, r*docs, docs, rungs, w)
	}
	total, self := tr.perTrace()
	out["docenc.diff_us"] = us(medianDur(total["docenc"]))
	out["dsp.commit_us"] = us(medianDur(total["dsp.store"]))
	out["dsp.commit_wire_self_us"] = us(medianDur(self["dsp.wire_commit"]))
	out["dsp.base_fetch_us"] = us(medianDur(total["dsp.wire_read"]))
	out["proxy.republish_self_us"] = us(medianDur(self["proxy"]))
	traceClosure(out, plain.lat.pct(50), medianDur(total["proxy"]), self, republishLayers)

	// Allocations of the store's commit alone: deltas prepared first.
	var before, after runtime.MemStats
	for k := 0; k < docs; k++ {
		if err := prepare(m.rig.dspCache)(k); err != nil {
			return nil, nil, err
		}
	}
	runtime.ReadMemStats(&before)
	for k := 0; k < docs; k++ {
		if err := wr.apply(m.rig.dspCache, k, delta[k]); err != nil {
			return nil, nil, err
		}
	}
	runtime.ReadMemStats(&after)
	out["dsp.commit_allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(docs)

	recovery, err := m.reopen(w)
	if err != nil {
		return nil, nil, err
	}
	out["dsp.recovery_ms"] = ms(recovery)
	return out, w, nil
}
