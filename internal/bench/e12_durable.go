package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/secure"
)

// E12 opens the durability axis: what does surviving kill -9 cost the
// DSP's write path, and what did promoting the old rewrite-everything
// file store to a WAL buy? Three questions, three tables:
//
//  1. throughput — publish / 1-block delta re-publish / read against
//     MemStore (the ceiling), the WAL store, and the WAL store without
//     fsync (isolating the disk barrier from the logging logic);
//  2. write amplification — bytes that hit the disk per 1-block delta
//     commit: the retired sdsctl file store rewrote the entire store
//     image each time (O(store)), the WAL appends one block run plus a
//     commit record (O(changed bytes));
//  3. recovery — reopen (replay) wall time as the log grows, and after
//     a checkpoint absorbs it.
//
// The containers are synthetic (the store never inspects ciphertext),
// so the numbers isolate the storage tier from the crypto pipeline.

const (
	e12BlockPlain = 1024
	e12NumBlocks  = 64
	e12Docs       = 16
)

// e12Container builds a fake container of the E12 geometry with every
// block stamped by (doc, version).
func e12Container(docID string, version uint32) *docenc.Container {
	h := docenc.Header{DocID: docID, Version: version, BlockPlain: e12BlockPlain,
		PayloadLen: e12BlockPlain * e12NumBlocks}
	c := &docenc.Container{Header: h}
	for i := 0; i < e12NumBlocks; i++ {
		b := bytes.Repeat([]byte{byte(version)}, e12BlockPlain+secure.MACLen)
		binary.BigEndian.PutUint32(b, version)
		c.Blocks = append(c.Blocks, b)
	}
	return c
}

// e12Publish puts e12Docs documents at version 1.
func e12Publish(s dsp.Store) error {
	for d := 0; d < e12Docs; d++ {
		if err := s.PutDocument(e12Container(fmt.Sprintf("e12-%d", d), 1)); err != nil {
			return err
		}
	}
	return nil
}

// e12Delta is the 1-block delta (the block-level minimum a real edit
// produces) that bumps document d to version v. The synthetic headers
// carry no MAC, so the base's is zero too.
func e12Delta(d int, v uint32) *docenc.DeltaUpdate {
	c := e12Container(fmt.Sprintf("e12-%d", d), v)
	return &docenc.DeltaUpdate{Header: c.Header, BaseVersion: v - 1,
		Runs: []docenc.PatchRun{{Start: int(v) % e12NumBlocks, Blocks: c.Blocks[:1]}}}
}

// e12DeltaRound pushes a 1-block delta to every document, bumping it to
// version v.
func e12DeltaRound(s dsp.Store, v uint32) error {
	for d := 0; d < e12Docs; d++ {
		if err := dsp.ApplyDelta(s, e12Delta(d, v)); err != nil {
			return err
		}
	}
	return nil
}

// E12Seed publishes the E12 corpus (the fixture behind the root
// BenchmarkE12DurableRepublish).
func E12Seed(s dsp.Store) error { return e12Publish(s) }

// E12CommitRound pushes one 1-block delta commit per E12 document at
// version v and returns how many commits that was.
func E12CommitRound(s dsp.Store, v uint32) (int64, error) {
	if err := e12DeltaRound(s, v); err != nil {
		return 0, err
	}
	return e12Docs, nil
}

// e12ConcurrentDeltas drives 1-block delta commits from `writers`
// concurrent goroutines (each owning its own documents, so no version
// conflicts), versions [from, from+rounds). This is the shape that lets
// group commit batch several commits under one fsync barrier.
func e12ConcurrentDeltas(s dsp.Store, writers, rounds int, from uint32) error {
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := from; v < from+uint32(rounds); v++ {
				for d := w; d < e12Docs; d += writers {
					if err := dsp.ApplyDelta(s, e12Delta(d, v)); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// e12ReadAll reads every block of every document once, batched.
func e12ReadAll(s dsp.Store) error {
	for d := 0; d < e12Docs; d++ {
		if _, err := dsp.ReadBlockRange(s, fmt.Sprintf("e12-%d", d), 0, e12NumBlocks); err != nil {
			return err
		}
	}
	return nil
}

// e12ImageBytes is what one commit cost the retired sdsctl file store:
// a rewrite of the full marshaled store image.
func e12ImageBytes(s dsp.Store) (int64, error) {
	ids, err := s.ListDocuments()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, id := range ids {
		h, err := s.Header(id)
		if err != nil {
			return 0, err
		}
		blocks, err := dsp.ReadBlockRange(s, id, 0, h.NumBlocks())
		if err != nil {
			return 0, err
		}
		img, err := (&docenc.Container{Header: h, Blocks: blocks}).MarshalBinary()
		if err != nil {
			return 0, err
		}
		total += int64(len(img))
	}
	return total, nil
}

type e12Backend struct {
	name  string
	open  func() (dsp.Store, func(), error)
	stats func(dsp.Store) *dsp.FileStoreStats
}

func e12Backends() []e12Backend {
	fileBackend := func(name string, opts dsp.FileStoreOptions) e12Backend {
		return e12Backend{
			name: name,
			open: func() (dsp.Store, func(), error) {
				dir, err := os.MkdirTemp("", "e12-*")
				if err != nil {
					return nil, nil, err
				}
				fs, err := dsp.NewFileStoreOptions(dir, opts)
				if err != nil {
					_ = os.RemoveAll(dir)
					return nil, nil, err
				}
				return fs, func() { _ = fs.Close(); _ = os.RemoveAll(dir) }, nil
			},
			stats: func(s dsp.Store) *dsp.FileStoreStats {
				st := s.(*dsp.FileStore).Stats()
				return &st
			},
		}
	}
	return []e12Backend{
		{name: "mem", open: func() (dsp.Store, func(), error) {
			return dsp.NewMemStore(), func() {}, nil
		}, stats: func(dsp.Store) *dsp.FileStoreStats { return nil }},
		fileBackend("wal", dsp.FileStoreOptions{}),
		fileBackend("wal-nosync", dsp.FileStoreOptions{NoSync: true}),
	}
}

// E12DurableThroughput compares the write and read paths across
// backends and reports the disk cost per 1-block delta commit.
// Recorded metrics: appended bytes and fsyncs per commit and the
// amplification advantage (gated — deterministic record sizes and
// ratios); wall times are informational.
func E12DurableThroughput(rec *Recorder) (*Table, *Table) {
	const deltaRounds = 8
	tp := &Table{
		ID:    "E12",
		Title: "durable store cost: MemStore vs WAL-backed FileStore",
		Columns: []string{"store", "publish ms", "delta-republish ms", "read ms",
			"fsyncs/commit", "KB appended/commit"},
		Notes: []string{
			fmt.Sprintf("%d docs × %d blocks × %dB; delta = 1 changed block per document per round",
				e12Docs, e12NumBlocks, e12BlockPlain),
			"wal-nosync isolates the fsync barrier from the logging logic",
			"fsyncs/commit: serial commits pay one barrier each (≈1); concurrent committers share barriers via group commit (< 1)",
			"wall-clock measurement (real files in TMPDIR)",
		},
	}
	amp := &Table{
		ID:      "E12",
		Title:   "write amplification per 1-block delta commit",
		Columns: []string{"store", "bytes to disk", "vs image rewrite", "WAL advantage"},
	}
	for _, be := range e12Backends() {
		s, cleanup, err := be.open()
		if err != nil {
			panic(err)
		}
		start := time.Now()
		if err := e12Publish(s); err != nil {
			panic(err)
		}
		publishWall := time.Since(start)

		var beforeApp, beforeSync int64
		if st := be.stats(s); st != nil {
			beforeApp, beforeSync = st.AppendedBytes, st.Syncs
		}
		var memBefore, memAfter runtime.MemStats
		runtime.ReadMemStats(&memBefore)
		start = time.Now()
		for v := uint32(2); v < 2+deltaRounds; v++ {
			if err := e12DeltaRound(s, v); err != nil {
				panic(err)
			}
		}
		deltaWall := time.Since(start)
		runtime.ReadMemStats(&memAfter)
		commits := int64(deltaRounds * e12Docs)
		commitAllocs := float64(memAfter.Mallocs-memBefore.Mallocs) / float64(commits)
		var perCommitBytes, perCommitSyncs float64
		if st := be.stats(s); st != nil {
			perCommitBytes = float64(st.AppendedBytes-beforeApp) / float64(commits)
			perCommitSyncs = float64(st.Syncs-beforeSync) / float64(commits)
		}

		start = time.Now()
		if err := e12ReadAll(s); err != nil {
			panic(err)
		}
		readWall := time.Since(start)

		fsyncCell, appendCell := "-", "-"
		if be.stats(s) != nil {
			fsyncCell = fmt.Sprintf("%.2f", perCommitSyncs)
			appendCell = fmt.Sprintf("%.2f", perCommitBytes/1024)
		}
		tp.AddRow(be.name, ms(publishWall), ms(deltaWall), ms(readWall), fsyncCell, appendCell)
		rec.Record(fmt.Sprintf("publish_ms_%s", be.name), "ms", float64(publishWall)/float64(time.Millisecond))
		rec.Record(fmt.Sprintf("delta_ms_%s", be.name), "ms", float64(deltaWall)/float64(time.Millisecond))
		rec.Record(fmt.Sprintf("read_ms_%s", be.name), "ms", float64(readWall)/float64(time.Millisecond))

		if be.stats(s) != nil {
			imageBytes, err := e12ImageBytes(s)
			if err != nil {
				panic(err)
			}
			amp.AddRow(be.name,
				fmt.Sprintf("%.1f KB", perCommitBytes/1024),
				fmt.Sprintf("%.1f KB", float64(imageBytes)/1024),
				fmt.Sprintf("%.0fx less", float64(imageBytes)/perCommitBytes))
			rec.RecordLower(fmt.Sprintf("commit_bytes_%s", be.name), "B", perCommitBytes)
			rec.RecordLower(fmt.Sprintf("fsyncs_per_commit_%s", be.name), "fsyncs", perCommitSyncs)
			// Heap allocations per 1-block delta commit, process-wide
			// (includes the group committer). The delta is dominated by the
			// container build in e12Container, but the WAL append path rides
			// on top — a regression there (per-record marshaling garbage,
			// lost buffer reuse) moves this number, so it is gated.
			rec.RecordLower(fmt.Sprintf("commit_allocs_%s", be.name), "allocs", commitAllocs)
			rec.RecordHigher(fmt.Sprintf("amplification_advantage_%s", be.name), "x",
				float64(imageBytes)/perCommitBytes)
		}

		// With real fsyncs and concurrent committers, group commit
		// shares barriers — the fsyncs/commit column drops below 1.
		if be.name == "wal" {
			const writers = 8
			st := be.stats(s)
			beforeApp, beforeSync = st.AppendedBytes, st.Syncs
			start = time.Now()
			if err := e12ConcurrentDeltas(s, writers, deltaRounds, 2+deltaRounds); err != nil {
				panic(err)
			}
			wall := time.Since(start)
			st = be.stats(s)
			concSyncs := float64(st.Syncs-beforeSync) / float64(commits)
			tp.AddRow(fmt.Sprintf("wal ×%d writers", writers), "-", ms(wall), "-",
				fmt.Sprintf("%.2f", concSyncs),
				fmt.Sprintf("%.2f", float64(st.AppendedBytes-beforeApp)/float64(commits)/1024))
			// Informational: how much the committers overlap (and so how
			// many barriers they share) depends on disk latency.
			rec.Record("concurrent_delta_ms", "ms", float64(wall)/float64(time.Millisecond))
			rec.Record("concurrent_fsyncs_per_commit", "fsyncs", concSyncs)
			if st.SyncRounds > 0 {
				rec.Record("group_commit_batching", "commits/round",
					float64(st.SyncWaits)/float64(st.SyncRounds))
			}
		}
		cleanup()
	}
	amp.Notes = []string{
		"image rewrite: what the retired sdsctl file store fsynced per commit (the whole store)",
		"WAL: one block run + one commit record — O(changed bytes), independent of store size",
	}
	return tp, amp
}

// E12Recovery measures reopen (replay) time as the log grows, then
// after a checkpoint absorbs it. Log sizes are gated (deterministic
// record framing); replay wall times are informational.
func E12Recovery(rec *Recorder) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "recovery time vs log size",
		Columns: []string{"delta commits in log", "log KB", "replay ms", "after checkpoint ms"},
		Notes: []string{
			"replay: NewFileStore on the directory left by an abrupt stop (no checkpoint)",
			"after checkpoint: the same state reopened once a checkpoint absorbed the log",
			"wall-clock measurement (real files in TMPDIR)",
		},
	}
	for _, rounds := range []int{4, 16, 64} {
		dir, err := os.MkdirTemp("", "e12rec-*")
		if err != nil {
			return nil, err
		}
		fs, err := dsp.NewFileStoreOptions(dir, dsp.FileStoreOptions{NoSync: true})
		if err != nil {
			return nil, err
		}
		if err := e12Publish(fs); err != nil {
			return nil, err
		}
		for v := uint32(2); v < uint32(2+rounds); v++ {
			if err := e12DeltaRound(fs, v); err != nil {
				return nil, err
			}
		}
		logBytes := fs.Stats().WALBytes
		if err := fs.Close(); err != nil {
			return nil, err
		}

		start := time.Now()
		r, err := dsp.NewFileStore(dir)
		if err != nil {
			return nil, err
		}
		replayWall := time.Since(start)
		if err := r.Checkpoint(); err != nil {
			return nil, err
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		start = time.Now()
		r2, err := dsp.NewFileStore(dir)
		if err != nil {
			return nil, err
		}
		ckptWall := time.Since(start)
		_ = r2.Close()
		_ = os.RemoveAll(dir)

		t.AddRow(fmt.Sprintf("%d", rounds*e12Docs), kb(logBytes), ms(replayWall), ms(ckptWall))
		rec.RecordLower(fmt.Sprintf("log_bytes_commits%d", rounds*e12Docs), "B", float64(logBytes))
		rec.Record(fmt.Sprintf("replay_ms_commits%d", rounds*e12Docs), "ms",
			float64(replayWall)/float64(time.Millisecond))
		rec.Record(fmt.Sprintf("post_checkpoint_ms_commits%d", rounds*e12Docs), "ms",
			float64(ckptWall)/float64(time.Millisecond))
	}
	return t, nil
}

// E12DurableStore runs the full durability experiment.
func E12DurableStore(rec *Recorder) []*Table {
	tp, amp := E12DurableThroughput(rec)
	trec, err := E12Recovery(rec)
	if err != nil {
		panic(err)
	}
	return []*Table{tp, amp, trec}
}
