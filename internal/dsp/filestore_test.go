package dsp

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// openFileStore opens a FileStore in dir, failing the test on error.
func openFileStore(t *testing.T, dir string, opts FileStoreOptions) *FileStore {
	t.Helper()
	s, err := NewFileStoreOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crash abandons the store without checkpoint or final sync — the
// in-process stand-in for a process death (the real one is exercised by
// TestFileStoreCrashRecovery, which SIGKILLs a child). The background
// checkpointer is stopped (a dead process runs nothing) and the
// directory lock released (the kernel would have done it).
func crash(s *FileStore) {
	s.stopCheckpointWorker()
	for _, seg := range s.segs {
		_ = seg.wal.close()
	}
	_ = s.lock.release()
}

// segForDoc is the segment index docID routes to in a store of n
// segments — tests use it to corrupt exactly the log that holds a
// document's history.
func segForDoc(docID string, n int) int {
	return int(shardHash(docID, 0) % uint32(n))
}

// appendRaw appends raw bytes to one segment's log file, simulating
// what a dying process left behind.
func appendRaw(t *testing.T, dir string, seg int, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, segWalName(seg)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreContract(t *testing.T) {
	storeContract(t, openFileStore(t, t.TempDir(), FileStoreOptions{}))
}

// TestFileStoreRecoversAcrossReopen: documents, rule sets and a delta
// re-publish all survive an abrupt stop (no checkpoint, no clean
// close) byte for byte.
func TestFileStoreRecoversAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})

	key := secure.KeyFromSeed("durable")
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 51, Patients: 6, VisitsPerPatient: 2})
	opts := docenc.EncodeOptions{DocID: "d", Key: key, BlockPlain: 128, MinSkipBytes: 32}
	old, _, err := docenc.Encode(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutDocument(old); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRuleSet("d", "alice", 2, []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	delta, _, err := docenc.DiffEncode(mutateTree(doc, 9), opts, old)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyDelta(s, delta); err != nil {
		t.Fatal(err)
	}
	want, err := delta.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	crash(s)

	r := openFileStore(t, dir, FileStoreOptions{})
	h, err := r.Header("d")
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != old.Header.Version+1 {
		t.Fatalf("recovered version %d, want %d", h.Version, old.Header.Version+1)
	}
	blocks, err := r.ReadBlocks("d", 0, h.NumBlocks())
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if !bytes.Equal(blocks[i], want.Blocks[i]) {
			t.Fatalf("recovered block %d differs", i)
		}
	}
	sealed, err := r.RuleSet("d", "alice")
	if err != nil || string(sealed) != "sealed" {
		t.Fatalf("recovered rules = %q, %v", sealed, err)
	}
	if st := r.Stats(); st.TornTail || st.SkippedRecords != 0 {
		t.Fatalf("clean log recovered as %+v", st)
	}
}

// TestFileStoreTornTailTruncated: a partially appended record (the
// kill -9 signature) is truncated away; everything before it survives
// and the store appends cleanly from the cut.
func TestFileStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	c1, c2 := testContainer(t, "doc1"), testContainer(t, "doc2")
	if err := s.PutDocument(c1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDocument(c2); err != nil {
		t.Fatal(err)
	}
	crash(s)

	// Half a valid frame: the length prefix promises more bytes than
	// the file holds. Torn onto the segment that holds doc1's history.
	whole := frame(append([]byte{recPutDocument}, 0xAA, 0xBB, 0xCC, 0xDD))
	appendRaw(t, dir, segForDoc("doc1", DefaultShards), whole[:len(whole)-2])

	r := openFileStore(t, dir, FileStoreOptions{})
	if st := r.Stats(); !st.TornTail {
		t.Fatalf("torn tail not detected: %+v", st)
	}
	ids, err := r.ListDocuments()
	if err != nil || len(ids) != 2 {
		t.Fatalf("recovered %v, %v", ids, err)
	}
	// The truncation left a clean boundary: new appends replay fine.
	if err := r.PutDocument(testContainer(t, "doc3")); err != nil {
		t.Fatal(err)
	}
	crash(r)
	r2 := openFileStore(t, dir, FileStoreOptions{})
	ids, _ = r2.ListDocuments()
	if len(ids) != 3 {
		t.Fatalf("after post-truncation append: %v", ids)
	}
	if st := r2.Stats(); st.TornTail {
		t.Fatalf("second recovery saw a torn tail: %+v", st)
	}
	crash(r2)

	// A corrupted (CRC-failing) final record is the same case.
	appendRaw(t, dir, segForDoc("doc2", DefaultShards), frame([]byte{recPutRuleSet, 1, 2, 3})[:9])
	r3 := openFileStore(t, dir, FileStoreOptions{})
	if st := r3.Stats(); !st.TornTail {
		t.Fatalf("corrupt tail not detected: %+v", st)
	}
	if ids, _ := r3.ListDocuments(); len(ids) != 3 {
		t.Fatalf("corrupt tail lost state: %v", ids)
	}
}

// TestFileStoreDuplicateCommitRecord: a commit record whose base the
// document already moved past (a crashed writer's duplicate, or a
// checkpoint-overlap replay) is skipped, never fatal, and changes
// nothing.
func TestFileStoreDuplicateCommitRecord(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	c := testContainer(t, "doc")
	if err := s.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	h2 := c.Header
	h2.Version++
	d := &docenc.DeltaUpdate{Header: h2, BaseVersion: c.Header.Version, BaseMAC: c.Header.MAC,
		Runs: []docenc.PatchRun{{Start: 0, Blocks: c.Blocks}}}
	if _, err := s.CommitDelta(d); err != nil {
		t.Fatal(err)
	}
	crash(s)

	appendRaw(t, dir, segForDoc("doc", DefaultShards), frame(appendDelta([]byte{recCommitDelta}, d)))

	r := openFileStore(t, dir, FileStoreOptions{})
	st := r.Stats()
	if st.SkippedRecords == 0 {
		t.Fatalf("duplicate commit not skipped: %+v", st)
	}
	h, err := r.Header("doc")
	if err != nil || h.Version != h2.Version {
		t.Fatalf("recovered header %+v, %v (want version %d)", h, err, h2.Version)
	}
}

// TestFileStoreCheckpointCompaction: a checkpoint absorbs the log
// (recovery replays only what came after it) and the combined
// checkpoint + truncated-log state is exactly the live state.
func TestFileStoreCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	if err := s.PutDocument(testContainer(t, "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRuleSet("a", "alice", 1, []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALBytes != 0 || st.Checkpoints == 0 {
		t.Fatalf("log not absorbed: %+v", st)
	}
	// Post-checkpoint ops land in the fresh log.
	if err := s.PutDocument(testContainer(t, "b")); err != nil {
		t.Fatal(err)
	}
	crash(s)

	r := openFileStore(t, dir, FileStoreOptions{})
	ids, _ := r.ListDocuments()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("recovered %v", ids)
	}
	if sealed, err := r.RuleSet("a", "alice"); err != nil || string(sealed) != "r1" {
		t.Fatalf("checkpointed rules = %q, %v", sealed, err)
	}
	if st := r.Stats(); st.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records past the checkpoint, want 1", st.ReplayedRecords)
	}
	// Torn tail on top of a checkpointed store: still just the prefix.
	crash(r)
	appendRaw(t, dir, segForDoc("a", DefaultShards), []byte{7, 0, 0})
	r2 := openFileStore(t, dir, FileStoreOptions{})
	if ids, _ := r2.ListDocuments(); len(ids) != 2 {
		t.Fatalf("checkpoint + torn log recovered %v", ids)
	}
	if !r2.Stats().TornTail {
		t.Fatal("torn tail after checkpoint not detected")
	}
}

// TestFileStoreCheckpointPreservesStagedUpdate: an in-flight handshake
// survives log compaction — its staged blocks are in memory, not in the
// log — and its commit after the checkpoint is one replayable record.
func TestFileStoreCheckpointPreservesStagedUpdate(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	c := testContainer(t, "doc")
	if err := s.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	h2 := c.Header
	h2.Version++
	token, err := s.BeginUpdate(h2, c.Header.Version)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlocks(token, 0, c.Blocks); err != nil {
		t.Fatal(err)
	}
	// Compaction happens mid-handshake.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitUpdate(token); err != nil {
		t.Fatalf("live token broken by checkpoint: %v", err)
	}
	crash(s)

	r := openFileStore(t, dir, FileStoreOptions{})
	h, err := r.Header("doc")
	if err != nil || h.Version != h2.Version {
		t.Fatalf("recovered %+v, %v (want version %d)", h, err, h2.Version)
	}
}

// TestFileStoreAbandonedBeginSurvivesRestartAsEviction: a staged update
// whose client died uncommitted never reached the log, so it dies with
// the process — the document is untouched, the dead token stays dead,
// and fresh handshakes work.
func TestFileStoreAbandonedBeginSurvivesRestartAsEviction(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	c := testContainer(t, "doc")
	if err := s.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	h2 := c.Header
	h2.Version++
	token, err := s.BeginUpdate(h2, c.Header.Version)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlocks(token, 0, c.Blocks[:1]); err != nil {
		t.Fatal(err)
	}
	crash(s) // client and its token die with the process

	r := openFileStore(t, dir, FileStoreOptions{})
	h, err := r.Header("doc")
	if err != nil || h.Version != c.Header.Version {
		t.Fatalf("abandoned update leaked into the store: %+v, %v", h, err)
	}
	if err := r.CommitUpdate(token); err == nil {
		t.Fatal("a dead token committed after restart")
	}
	// The slot is free: a fresh handshake completes.
	token2, err := r.BeginUpdate(h2, c.Header.Version)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.PutBlocks(token2, 0, c.Blocks); err != nil {
		t.Fatal(err)
	}
	if err := r.CommitUpdate(token2); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreServedOverTCPSurvivesRestart: the acceptance path —
// dspd's serving stack (Server + Cache) on a FileStore, stopped without
// ceremony, restarted on the same directory, then queried and delta
// re-published against the recovered state.
func TestFileStoreServedOverTCPSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	key := secure.KeyFromSeed("tcp-durable")
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 52, Patients: 6, VisitsPerPatient: 2})
	opts := docenc.EncodeOptions{DocID: "d", Key: key, BlockPlain: 128, MinSkipBytes: 32}

	serve := func(fs *FileStore) (*Client, *Server) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(NewCache(fs, 1<<20))
		go func() { _ = srv.Serve(l) }()
		cl, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return cl, srv
	}

	fs := openFileStore(t, dir, FileStoreOptions{})
	cl, srv := serve(fs)
	old, _, err := docenc.Encode(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PutDocument(old); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutRuleSet("d", "alice", 1, []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	_ = srv.Close()
	crash(fs) // no checkpoint, no clean close

	fs2 := openFileStore(t, dir, FileStoreOptions{})
	cl2, srv2 := serve(fs2)
	defer func() { _ = cl2.Close(); _ = srv2.Close() }()

	// End-to-end read of the recovered store through the wire.
	h, err := cl2.Header("d")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := cl2.ReadBlocks("d", 0, h.NumBlocks())
	if err != nil {
		t.Fatal(err)
	}
	got, err := docenc.DecodeDocument(&docenc.Container{Header: h, Blocks: blocks}, key)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := xmlstream.Serialize(got.Events(), xmlstream.WriterOptions{})
	b, _ := xmlstream.Serialize(doc.Events(), xmlstream.WriterOptions{})
	if a != b {
		t.Fatal("recovered store serves the wrong document")
	}

	// And a delta re-publish over the wire against the recovered base.
	mutated := mutateTree(doc, 7)
	delta, _, err := docenc.DiffEncode(mutated, opts, old)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyDelta(cl2, delta); err != nil {
		t.Fatal(err)
	}
	h2, err := cl2.Header("d")
	if err != nil || h2.Version != old.Header.Version+1 {
		t.Fatalf("post-recovery republish: %+v, %v", h2, err)
	}
}

// TestFileStoreConcurrentRepublishHammer is the durable tier's -race
// regression proof (the private sdsctl file store it replaces raced on
// its shadow maps): concurrent delta re-publishers on distinct
// documents, concurrent readers, and checkpoints racing them all —
// then a recovery pass that must agree with the last committed version
// of every document.
func TestFileStoreConcurrentRepublishHammer(t *testing.T) {
	const (
		writers    = 4
		versions   = 30
		blockPlain = 64
		numBlocks  = 4
	)
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{NoSync: true}) // hammer the logic, not the disk

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
	for w := 0; w < writers; w++ {
		if err := s.PutDocument(makeContainer(fmt.Sprintf("doc%d", w), 1)); err != nil {
			t.Fatal(err)
		}
		committed[w].Store(1)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2*writers+2)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			docID := fmt.Sprintf("doc%d", w)
			for v := uint32(2); v <= versions; v++ {
				c := makeContainer(docID, v)
				token, err := s.BeginUpdate(c.Header, v-1)
				if err != nil {
					errCh <- err
					return
				}
				// Stage a one-block delta; the rest carries over.
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
				// Block 0 is rewritten each version and must never lag a
				// version the reader knows was committed.
				if uint32(blocks[0][0]) < lo {
					errCh <- fmt.Errorf("%s block 0 from version %d after %d committed",
						docID, blocks[0][0], lo)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for w := 0; w < writers; w++ {
		for committed[w].Load() < versions {
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
	crash(s)

	// Recovery must land every document on its final committed version,
	// whichever mix of checkpoint and log it comes from.
	r := openFileStore(t, dir, FileStoreOptions{})
	for w := 0; w < writers; w++ {
		docID := fmt.Sprintf("doc%d", w)
		h, err := r.Header(docID)
		if err != nil {
			t.Fatal(err)
		}
		if h.Version != versions {
			t.Fatalf("%s recovered at version %d, want %d", docID, h.Version, versions)
		}
		blk, err := r.ReadBlock(docID, 0)
		if err != nil || blk[0] != byte(versions) {
			t.Fatalf("%s block 0 recovered from version %d, %v", docID, blk[0], err)
		}
	}
}

// TestFileStoreBrokenLogRefusesWrites: once an append fails the store
// must stop acknowledging mutations (it can no longer make them
// durable) while reads keep working.
func TestFileStoreBrokenLogRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	if err := s.PutDocument(testContainer(t, "doc")); err != nil {
		t.Fatal(err)
	}
	for _, seg := range s.segs {
		_ = seg.wal.f.Close() // the disk goes away
	}
	if err := s.PutDocument(testContainer(t, "doc2")); err == nil {
		t.Fatal("write acknowledged with a dead log")
	}
	if err := s.PutRuleSet("doc", "a", 1, nil); err == nil {
		t.Fatal("rule write acknowledged with a dead log")
	}
	if _, err := s.Header("doc"); err != nil {
		t.Fatalf("reads must survive a broken log: %v", err)
	}
}
