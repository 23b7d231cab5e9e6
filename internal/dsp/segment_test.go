package dsp

// Tests for the segmented durable layout: the directory lock, the
// refusal of the retired single-file layout, background
// (off-request-path) checkpointing, and the concurrent republish +
// background checkpoint + mid-run recovery hammer the CI -race step
// runs.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docenc"
	"repro/internal/secure"
)

// TestFileStoreStaleLockReclaimed: a LOCK file left by a dead process
// holds no flock (the kernel released it with the process), so a fresh
// open reclaims it instead of refusing service forever.
func TestFileStoreStaleLockReclaimed(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, lockFileName), []byte("pid 999999999"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("stale lock not reclaimed: %v", err)
	}
	if err := s.PutDocument(testContainer(t, "doc")); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
}

// snapshotDir reads every file in dir, so a test can show an open left
// them all byte-identical.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// requireDirUnchanged fails unless dir holds exactly the files of before,
// byte for byte.
func requireDirUnchanged(t *testing.T, dir string, before map[string][]byte) {
	t.Helper()
	after := snapshotDir(t, dir)
	if len(after) != len(before) {
		t.Fatalf("directory holds %d files after the refused open, %d before", len(after), len(before))
	}
	for name, data := range before {
		if got, ok := after[name]; !ok || !bytes.Equal(got, data) {
			t.Fatalf("%s changed by a refused open", name)
		}
	}
}

// TestFileStoreRefusesSingleFileLayout: a directory in the retired
// single-file layout (wal.log and/or checkpoint, no store.meta) fails to
// open with an error naming the layout, and every file in it is left
// byte-identical — nothing converted, deleted or locked.
func TestFileStoreRefusesSingleFileLayout(t *testing.T) {
	for _, files := range [][]string{{walFileName, ckptFileName}, {walFileName}, {ckptFileName}} {
		dir := t.TempDir()
		for _, name := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("old store "+name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := snapshotDir(t, dir)
		s, err := NewFileStore(dir)
		if err == nil {
			_ = s.Close()
			t.Fatalf("%v: opened a single-file layout", files)
		}
		if !strings.Contains(err.Error(), "single-file layout") {
			t.Fatalf("%v: error does not name the layout: %v", files, err)
		}
		requireDirUnchanged(t, dir, before)
	}
}

// docsInDistinctSegments probes for two document ids living in
// different segments of an n-segment store.
func docsInDistinctSegments(n int) (a, b string) {
	a = "seg-probe-0"
	for i := 1; ; i++ {
		b = fmt.Sprintf("seg-probe-%d", i)
		if segForDoc(b, n) != segForDoc(a, n) {
			return a, b
		}
	}
}

// TestFileStoreCheckpointOffRequestPath is the latency-regression
// guard for the old inline trigger: the mutation that crosses the
// checkpoint budget must return before the checkpoint even starts (it
// runs on the background goroutine), and a checkpoint frozen mid-flight
// stalls only its own segment — writers to other segments proceed.
func TestFileStoreCheckpointOffRequestPath(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{
		Shards: shards,
		NoSync: true,
		// Budget of one byte per segment: every durable mutation trips
		// the trigger.
		CheckpointBytes: shards,
	})
	defer func() { _ = s.Close() }()

	entered := make(chan int, 64)
	release := make(chan struct{})
	// Set before the first mutation, from this goroutine (see the hook's
	// contract): the trigger enqueue is the happens-before edge.
	s.testCkptGate = func(seg int) {
		entered <- seg
		<-release
	}

	docA, docB := docsInDistinctSegments(shards)
	// This put crosses the budget. It must return with the checkpoint
	// not yet taken — the old store ran the whole compaction inline
	// right here, on this call.
	if err := s.PutDocument(testContainer(t, docA)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Checkpoints; got != 0 {
		t.Fatalf("checkpoint ran on the request path: %d checkpoints before the worker was released", got)
	}
	// The worker is now frozen inside docA's segment checkpoint,
	// holding that segment's locks.
	frozen := <-entered
	if frozen != segForDoc(docA, shards) {
		t.Fatalf("checkpoint froze segment %d, want %d", frozen, segForDoc(docA, shards))
	}
	// Writers to every other segment must be unaffected by the
	// in-flight compaction.
	if err := s.PutDocument(testContainer(t, docB)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRuleSet(docB, "alice", 1, []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	close(release)

	// Released, the background checkpoints complete on their own.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint never completed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFileStoreSegmentedHammer is the CI -race step for the segmented
// tier: concurrent per-shard delta re-publishers racing background
// checkpoints (a tiny per-segment budget keeps the compactor busy),
// interrupted by a mid-run crash + parallel recovery, hammered again,
// then recovered once more sequentially — every document must land on
// its last committed version every time.
func TestFileStoreSegmentedHammer(t *testing.T) {
	const (
		writers    = 8
		phaseLen   = 20
		blockPlain = 64
		numBlocks  = 4
		shards     = 8
	)
	dir := t.TempDir()
	opts := FileStoreOptions{
		Shards: shards,
		NoSync: true, // hammer the logic, not the disk
		// A few hundred bytes per segment: background checkpoints run
		// constantly under the writers.
		CheckpointBytes: 4 << 10,
	}

	makeContainer := func(docID string, version uint32) *docenc.Container {
		h := docenc.Header{DocID: docID, Version: version, BlockPlain: blockPlain,
			PayloadLen: blockPlain * numBlocks}
		c := &docenc.Container{Header: h}
		for i := 0; i < numBlocks; i++ {
			c.Blocks = append(c.Blocks, bytes.Repeat([]byte{byte(version)}, blockPlain+secure.MACLen))
		}
		return c
	}

	var committed [writers]atomic.Uint32
	hammer := func(s *FileStore, from, to uint32) {
		t.Helper()
		var wg sync.WaitGroup
		errCh := make(chan error, 2*writers)
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				docID := fmt.Sprintf("doc%d", w)
				for v := from; v <= to; v++ {
					c := makeContainer(docID, v)
					token, err := s.BeginUpdate(c.Header, v-1)
					if err != nil {
						errCh <- err
						return
					}
					if err := s.PutBlocks(token, 0, c.Blocks[:1]); err != nil {
						errCh <- err
						return
					}
					if err := s.CommitUpdate(token); err != nil {
						errCh <- err
						return
					}
					committed[w].Store(v)
				}
			}(w)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				docID := fmt.Sprintf("doc%d", w)
				for {
					select {
					case <-stop:
						return
					default:
					}
					lo := committed[w].Load()
					blocks, err := s.ReadBlocks(docID, 0, numBlocks)
					if err != nil {
						errCh <- err
						return
					}
					// Block 0 is rewritten each version and must never
					// lag a version the reader knows was committed.
					if uint32(blocks[0][0]) < lo {
						errCh <- fmt.Errorf("%s block 0 from version %d after %d committed",
							docID, blocks[0][0], lo)
						return
					}
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for w := 0; w < writers; w++ {
			for committed[w].Load() < to {
				select {
				case err := <-errCh:
					close(stop)
					t.Fatal(err)
				default:
				}
			}
		}
		close(stop)
		<-done
		select {
		case err := <-errCh:
			t.Fatal(err)
		default:
		}
	}

	verify := func(s *FileStore, want uint32) {
		t.Helper()
		for w := 0; w < writers; w++ {
			docID := fmt.Sprintf("doc%d", w)
			h, err := s.Header(docID)
			if err != nil {
				t.Fatal(err)
			}
			if h.Version != want {
				t.Fatalf("%s recovered at version %d, want %d", docID, h.Version, want)
			}
			blk, err := s.ReadBlock(docID, 0)
			if err != nil || blk[0] != byte(want) {
				t.Fatalf("%s block 0 recovered from version %d, %v", docID, blk[0], err)
			}
		}
	}

	s := openFileStore(t, dir, opts)
	for w := 0; w < writers; w++ {
		if err := s.PutDocument(makeContainer(fmt.Sprintf("doc%d", w), 1)); err != nil {
			t.Fatal(err)
		}
		committed[w].Store(1)
	}
	hammer(s, 2, phaseLen)
	// The compactor is asynchronous; give a queued checkpoint a moment
	// to land before declaring the trigger dead.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpoints never ran under the hammer")
		}
		time.Sleep(time.Millisecond)
	}
	crash(s)

	// Mid-run recovery (parallel), then hammer the recovered store.
	r := openFileStore(t, dir, opts)
	verify(r, phaseLen)
	hammer(r, phaseLen+1, 2*phaseLen)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(r)

	// Final recovery, forced sequential: replay order must not matter.
	r2 := openFileStore(t, dir, FileStoreOptions{NoSync: true, RecoveryParallelism: 1})
	verify(r2, 2*phaseLen)
	if st := r2.Stats(); st.SegmentCount != shards {
		t.Fatalf("segment count drifted: %+v", st)
	}
	_ = r2.Close()
}
