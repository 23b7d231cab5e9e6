package main

import (
	"repro/internal/card"
	"repro/internal/dsp"
	"repro/internal/gateway"
)

// ratio is a/b, 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gatewayCounters turns two gatewayd snapshots taken around a window
// into the per-layer counts of the trusted tier: everything the daemon's
// own /stats surface says about the queries in between.
func gatewayCounters(before, after gateway.Snapshot) map[string]float64 {
	a, b := after.Pool, before.Pool
	queries := float64(a.Queries - b.Queries)
	m := map[string]float64{
		"gateway.queries":                float64(after.Queries - before.Queries),
		"gateway.errors":                 float64(a.Errors - b.Errors),
		"fleet.checkout_waits":           float64(a.Waits - b.Waits),
		"fleet.session_reuse_ratio":      ratio(float64(a.Recycles-b.Recycles), queries),
		"fleet.provisions":               float64(a.Provisions - b.Provisions),
		"fleet.retires":                  float64(a.Retires - b.Retires),
		"fleet.version_refreshes":        float64(a.VersionRefreshes - b.VersionRefreshes),
		"proxy.blocks_fetched_per_query": ratio(float64(a.BlocksFetched-b.BlocksFetched), queries),
		"proxy.blocks_wasted_ratio":      ratio(float64(a.BlocksWasted-b.BlocksWasted), float64(a.BlocksFetched-b.BlocksFetched)),
	}
	var meter card.Meter
	for _, s := range after.Subjects {
		meter.Add(s.Meter)
	}
	for _, s := range before.Subjects {
		meter = meter.Sub(s.Meter)
	}
	m["card.sim_ms_per_op"] = ratio(ms(meter.Price(card.Modern).Total()), queries)
	m["card.crypto_bytes_per_op"] = ratio(float64(meter.CryptoBytes), queries)
	if after.Cache != nil && before.Cache != nil {
		m["dsp.gwcache_hit_ratio"] = hitRatio(*before.Cache, *after.Cache)
	}
	return m
}

// hitRatio is the share of block lookups between two cache snapshots
// that were served from the cache.
func hitRatio(before, after dsp.CacheStats) float64 {
	hits := float64(after.Hits - before.Hits)
	return ratio(hits, hits+float64(after.Misses-before.Misses))
}

// storeCounters turns two snapshots of dspd's cache and durable store
// into the read-side counts of the untrusted tier. delivered is the
// block payload the clients received in between.
func storeCounters(cache0, cache1 dsp.CacheStats, fs0, fs1 dsp.FileStoreStats, delivered int64) map[string]float64 {
	return map[string]float64{
		"dsp.cache_hit_ratio": hitRatio(cache0, cache1),
		"dsp.cache_evictions": float64(cache1.Evictions - cache0.Evictions),
		"dsp.mmap_reads":      float64(fs1.MmapReads - fs0.MmapReads),
		"dsp.heap_reads":      float64(fs1.HeapReads - fs0.HeapReads),
		"dsp.sendfile_ratio":  ratio(float64(fs1.SendfileBytes-fs0.SendfileBytes), float64(delivered)),
	}
}

// commitCounters turns two snapshots of the durable store into the
// write-side counts: what commits commits cost in log bytes, flushes and
// checkpoints. deltaBytes is the changed-block payload the writer
// uploaded, imageBytes the checkpoint images written meanwhile.
func commitCounters(fs0, fs1 dsp.FileStoreStats, commits, deltaBytes, imageBytes int64) map[string]float64 {
	n := float64(commits)
	wal := float64(fs1.AppendedBytes - fs0.AppendedBytes)
	return map[string]float64{
		"dsp.fsyncs_per_commit":         ratio(float64(fs1.Syncs-fs0.Syncs), n),
		"dsp.wal_bytes_per_commit":      ratio(wal, n),
		"dsp.write_amp":                 ratio(wal+float64(imageBytes), float64(deltaBytes)),
		"dsp.group_commit_batch":        ratio(float64(fs1.SyncWaits-fs0.SyncWaits), float64(fs1.SyncRounds-fs0.SyncRounds)),
		"dsp.checkpoints":               float64(fs1.Checkpoints - fs0.Checkpoints),
		"dsp.checkpoint_ms":             ms(fs1.LastCheckpointDuration),
		"docenc.delta_bytes_per_commit": ratio(float64(deltaBytes), n),
	}
}
