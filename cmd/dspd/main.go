// Command dspd runs the untrusted Document Store Provider as a TCP
// server. Terminals connect with dsp.Dial / dsp.DialPool (or
// cmd/sdsctl -store).
//
// Usage:
//
//	dspd [-addr :7070] [-store DIR] [-shards 16] [-cache-mb 64] [-workers 0] [-depth 0]
//
// Without -store the store is in-memory: sharded by document id,
// fronted by an LRU block cache, gone on exit. With -store DIR it is
// durable: the same sharded in-memory tier serves reads, but every
// acknowledged write goes through a per-shard WAL segment in DIR first
// (group-committed fsyncs per segment, background per-shard checkpoint
// + log compaction), so the daemon can be killed -9 at any instant and
// restart on the last durable state — segment logs replay in parallel
// at startup. DIR is flock-protected (two daemons cannot share it); a
// directory in the retired single-file layout, or holding an image in a
// retired format, is refused with an error naming it. The read tier is
// the platform's: on unix checkpoint images are mapped and served as
// zero-copy views, on linux contiguous cold runs go out with sendfile(2).
// dspd models the honest-but-curious server of the
// architecture, whose compromise the client-side access control is
// designed to survive — scaling it out never weakens the security
// argument, which is why it is the tier built for fan-out.
//
// On SIGINT/SIGTERM the server drains in-flight requests, checkpoints
// the durable store (making the next start instant), and reports cache
// and durability counters before exiting.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dsp"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	storeDir := flag.String("store", "", "durable store directory in the segmented layout; a retired layout or image format is refused, never converted (empty: in-memory only)")
	shards := flag.Int("shards", dsp.DefaultShards,
		"store shard count (with -store: fixes the WAL segment count at creation; an existing store keeps its persisted count)")
	cacheMB := flag.Int("cache-mb", 64, "LRU block cache budget in MiB (0 disables the cache)")
	workers := flag.Int("workers", 0, "max concurrently executing requests (0: 4×GOMAXPROCS)")
	depth := flag.Int("depth", 0, "per-connection pipeline depth (0: default)")
	ckptMB := flag.Int("checkpoint-mb", 0,
		"with -store: total WAL budget in MiB; a segment crossing its share is checkpointed in the background (0: default, -1: never)")
	noSync := flag.Bool("nosync", false,
		"with -store: skip fsync (throughput over durability; a crash can lose acknowledged writes)")
	recoveryWorkers := flag.Int("recovery-workers", 0,
		"with -store: parallel segment-recovery workers at startup (0: GOMAXPROCS, 1: sequential)")
	flag.Parse()

	var store dsp.Store
	var durable *dsp.FileStore
	if *storeDir != "" {
		var err error
		durable, err = dsp.NewFileStoreOptions(*storeDir, dsp.FileStoreOptions{
			Shards:              *shards,
			NoSync:              *noSync,
			CheckpointBytes:     int64(*ckptMB) << 20,
			RecoveryParallelism: *recoveryWorkers,
		})
		if err != nil {
			log.Fatal(err)
		}
		st := durable.Stats()
		log.Printf("dspd: recovered %s in %v: %d segments, %d log records replayed (%d superseded), torn tail: %v",
			*storeDir, st.RecoveryDuration, st.SegmentCount, st.ReplayedRecords, st.SkippedRecords, st.TornTail)
		if st.MappedBytes > 0 {
			log.Printf("dspd: mmap tier: %d KiB of checkpoint images mapped across %d segments", st.MappedBytes>>10, st.SegmentCount)
		}
		if st.FooterMigrations > 0 {
			log.Printf("dspd: rewrote %d checkpoint images whose index footer failed validation", st.FooterMigrations)
		}
		// An existing store keeps its persisted segment count; echo the
		// real one, not the flag.
		*shards = st.SegmentCount
		store = durable
	} else {
		store = dsp.NewMemStoreShards(*shards)
	}
	var cache *dsp.Cache
	if *cacheMB > 0 {
		cache = dsp.NewCache(store, int64(*cacheMB)<<20)
		store = cache
	}
	srv := dsp.NewServerConfig(store, dsp.ServerConfig{
		Workers:       *workers,
		PipelineDepth: *depth,
	})
	srv.Logf = log.Printf
	srv.Stats = func() dsp.ServerStats {
		var st dsp.ServerStats
		if ids, err := store.ListDocuments(); err == nil {
			st.Documents = len(ids)
		}
		if cache != nil {
			cs := cache.Stats()
			st.Cache = &cs
		}
		if durable != nil {
			ds := durable.Stats()
			st.Durable = &ds
		}
		return st
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()
	kind := "in-memory"
	if durable != nil {
		kind = "durable (" + *storeDir + ")"
	}
	log.Printf("dspd: serving the untrusted %s store on %s (%d shards, cache %d MiB)",
		kind, *addr, *shards, *cacheMB)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	case s := <-sig:
		log.Printf("dspd: %v, draining", s)
		if err := srv.Close(); err != nil {
			log.Printf("dspd: close: %v", err)
		}
	}
	if cache != nil {
		st := cache.Stats()
		log.Printf("dspd: cache %d hits / %d misses (%.1f%% hit rate), %d blocks resident, %d evictions",
			st.Hits, st.Misses, 100*st.HitRate(), st.Blocks, st.Evictions)
	}
	if durable != nil {
		// Checkpoint so the next start replays nothing; the WAL made
		// everything durable already, this is a startup-latency favor.
		if err := durable.Checkpoint(); err != nil {
			log.Printf("dspd: final checkpoint: %v", err)
		} else {
			log.Printf("dspd: final checkpoint of %d segments in %v",
				durable.Stats().SegmentCount, durable.Stats().LastCheckpointDuration)
		}
		if err := durable.Close(); err != nil {
			log.Printf("dspd: closing store: %v", err)
		}
		st := durable.Stats()
		log.Printf("dspd: wal %d records / %d KiB appended, %d fsync barriers, %d segment checkpoints",
			st.Records, st.AppendedBytes>>10, st.Syncs, st.Checkpoints)
		log.Printf("dspd: reads served: %d mapped (zero-copy), %d heap", st.MmapReads, st.HeapReads)
		if st.SendfileReads > 0 || st.SendfileFallbacks > 0 {
			log.Printf("dspd: sendfile: %d runs / %d KiB kernel-to-wire, %d writev fallbacks",
				st.SendfileReads, st.SendfileBytes>>10, st.SendfileFallbacks)
		}
	}
}
