package dsp

// FileStore is the durable DSP tier: a MemStore image kept alive by
// write-ahead logging. Reads are served from the sharded in-memory
// store at memory speed; every acknowledged mutation is a WAL record
// first, so a crash at any instant restarts on exactly the prefix of
// history that was made durable. A mutation is logged first, made
// durable second (the group commit's barrier) and published to readers
// third: a reader can never be served a version a crash would lose. A
// delta re-publish is one record — base, new header and every changed
// block — so it appends O(changed bytes), where the pre-WAL file store
// rewrote the whole image per commit.
//
// Layout: the on-disk store is segmented to match the in-memory shards.
// A directory holds one `wal-NNN.log` + `checkpoint-NNN` pair per
// shard, a `store.meta` file pinning the segment count the store was
// created with, and a `LOCK` file (flock) so two processes can never
// interleave appends into one log. Every record of a document — its
// puts, its rule sets, its delta commits — lives in the segment its id
// hashes to, so writers to different documents append
// under different log mutexes and fsync through different group-commit
// batchers: the write path scales with segments instead of serializing
// on one log lock.
//
// Checkpoints are per-segment and streaming: a segment's image is
// written document by document through a buffered writer straight to
// its temp file (never materialized whole in memory), then published by
// atomic rename, after which that segment's log is truncated. A
// segment crossing its share of
// Options.CheckpointBytes is checkpointed by a background goroutine —
// the writer that tripped the threshold is never charged the
// compaction, and only writers to the compacting segment wait on it.
//
// Recovery is parallel: segment checkpoints load and segment logs
// replay concurrently across GOMAXPROCS workers (a document's whole
// history lives in one segment, so segments replay independently).
// Each segment stops at — and truncates — its own torn tail (kill -9
// mid append); a record that no longer applies (a checkpoint superseded
// it) is skipped, not fatal.
//
// One format is read and written: this segmented layout with v3
// images. A directory in the retired single-file layout (`wal.log` +
// `checkpoint`, no `store.meta`) and an image with v1 or v2 magic are
// refused at open with an error naming the format; nothing is converted,
// deleted or rewritten.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/docenc"
	"repro/internal/wire"
)

// FileStoreOptions tunes a FileStore.
type FileStoreOptions struct {
	// Shards is the partition count — in memory and on disk (one WAL
	// segment + checkpoint per shard). It is fixed when the store is
	// created and persisted in store.meta; opening an existing store
	// keeps the count it was created with (0 = DefaultShards).
	Shards int
	// NoSync skips every fsync. Throughput-measurement and
	// scratch-store use only: a crash can lose acknowledged writes
	// (each log stays ordered, so recovery still sees a clean prefix).
	NoSync bool
	// CheckpointBytes is the total log budget across all segments: a
	// segment whose log grows past its share (CheckpointBytes/Shards)
	// is checkpointed in the background (0 = DefaultCheckpointBytes,
	// < 0 = never — explicit Checkpoint calls only).
	CheckpointBytes int64
	// RecoveryParallelism caps the workers that load checkpoints and
	// replay segment logs at open (0 = GOMAXPROCS, 1 = sequential).
	RecoveryParallelism int
}

// DefaultCheckpointBytes bounds the combined log size (and therefore
// recovery time) when the caller does not choose a budget.
const DefaultCheckpointBytes = 64 << 20

// FileStoreStats is a point-in-time snapshot of a FileStore's durability
// counters.
type FileStoreStats struct {
	// Records and AppendedBytes count WAL appends since open (frame
	// overhead included), summed over segments. Syncs counts fsync
	// barriers actually issued — group commit makes it smaller than the
	// number of durable commits.
	Records, AppendedBytes, Syncs int64
	// SyncWaits counts durable commits served through the cross-segment
	// group committer; SyncRounds counts the fsync rounds it ran.
	// SyncWaits/SyncRounds is the achieved commit-batching factor.
	SyncWaits, SyncRounds int64
	// WALBytes is the combined current log length; Checkpoints counts
	// segment checkpoints taken since open (one Checkpoint() call
	// checkpoints every segment).
	WALBytes, Checkpoints int64
	// ReplayedRecords and SkippedRecords describe recovery at open:
	// applied vs. superseded log records. TornTail reports that at
	// least one segment log ended in a partially written record, which
	// recovery truncated.
	ReplayedRecords, SkippedRecords int64
	TornTail                        bool
	// SegmentCount is the store's on-disk segment count (fixed at
	// creation, read back from store.meta on reopen).
	SegmentCount int
	// RecoveryDuration is the wall time the last open spent loading
	// checkpoints and replaying logs (footer heals included).
	RecoveryDuration time.Duration
	// LastCheckpointDuration is the wall time of the most recent
	// checkpoint — one segment for a background trigger, all segments
	// for an explicit Checkpoint().
	LastCheckpointDuration time.Duration
	// MappedBytes is the total size of the currently mapped checkpoint
	// images (0 on platforms without mmap). MmapReads and
	// HeapReads count blocks served from the mapped tier vs. heap
	// memory — together they show how much of the corpus the store
	// serves without holding it resident.
	MappedBytes          int64
	MmapReads, HeapReads int64
	// MadviseCalls counts paging-advice hints issued for mapped images:
	// WILLNEED ahead of footer-driven recovery scans and large cold
	// pinned runs, SEQUENTIAL on freshly installed images. Always 0 on
	// platforms without madvise and under -tags nommap.
	MadviseCalls int64
	// FooterMigrations counts images whose footer failed validation and
	// were rewritten at open.
	FooterMigrations int64
	// SendfileReads counts checkpoint runs fully shipped by the
	// kernel-resident serve path (sendfile, one count per run);
	// SendfileBytes the bytes those calls moved page cache → socket.
	// SendfileFallbacks counts runs a connection had to push through
	// writev after the kernel refused sendfile at runtime (ENOSYS,
	// EINVAL, short transfer) — the output is byte-identical either way.
	// All zero where the platform has no sendfile tier (non-linux, no
	// mmap tier).
	SendfileReads, SendfileBytes, SendfileFallbacks int64
}

// segment is one on-disk partition: a WAL with its own append mutex and
// group-commit batcher, plus a checkpoint image, both owned by the
// in-memory shard of the same index.
type segment struct {
	idx int
	wal *walWriter

	// ckptMu admits one checkpoint of this segment at a time (an
	// explicit Checkpoint racing the background trigger).
	ckptMu sync.Mutex
	// ckptQueued gates one outstanding background request per segment.
	ckptQueued atomic.Bool

	// region is the segment's current checkpoint mapping (nil when the
	// heap tier serves everything). Written under the owning shard's
	// write lock (installMapping) and read under its read lock — the
	// same discipline as the shard's documents, whose blocks may point
	// into it.
	region *mmapRegion
	// needRewrite marks a segment whose v3 image failed footer
	// validation and was heap-loaded from its body; the open rewrites it
	// once. Written single-threaded during recovery.
	needRewrite bool

	// pending holds, per document, the mutation that is logged but not
	// yet published: a channel closed once it is published (or given
	// up). The next mutation of the document waits for it, so the order
	// mutations apply in is their log order. Guarded by the shard lock
	// of the same index, which the publishing committer takes without
	// the log mutex — a checkpoint holds that while it waits them out.
	pending map[string]chan struct{}
}

// FileStore implements Store, DeltaCommitter and DocUpdater on disk.
type FileStore struct {
	mem  *MemStore
	dir  string
	opts FileStoreOptions
	lock *dirLock
	segs []*segment

	// gc batches durability barriers across segments: concurrent commits
	// share fsync rounds instead of each paying per-segment barriers.
	gc *groupCommitter

	// segBudget is the per-segment auto-checkpoint threshold
	// (CheckpointBytes split across segments; <= 0 disables).
	segBudget int64

	checkpoints atomic.Int64
	lastCkpt    atomic.Int64 // nanoseconds of the most recent checkpoint

	// sf receives the connection writers' sendfile outcomes for runs
	// this store resolved (each wireRun carries the pointer).
	sf sendfileStats
	// mappedBytes tracks the combined size of the segments' current
	// regions; mmapReads / heapReads count blocks served per tier.
	mappedBytes  atomic.Int64
	mmapReads    atomic.Int64
	heapReads    atomic.Int64
	madviseCalls atomic.Int64
	// footerMigrations is set during open (before the store is visible).
	footerMigrations int64

	// broken latches the first append/checkpoint failure: once a log
	// can no longer record history, acknowledging further mutations
	// would promise durability the store cannot deliver. Reads keep
	// working.
	broken atomic.Value // error

	recovery          time.Duration
	replayed, skipped int64
	tornTail          bool

	// The background checkpointer: durable() enqueues a segment index
	// when its log crosses segBudget; the worker compacts it off the
	// request path.
	ckptCh   chan int
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup
	stopOnce sync.Once

	// testCkptGate, when set, is called by the checkpointer under the
	// segment's locks — tests use it to freeze a checkpoint mid-flight.
	// It must be set before the store's first mutation, from the
	// goroutine that will mutate (the trigger enqueue is the
	// happens-before edge to the worker).
	testCkptGate func(seg int)
}

const (
	// The retired single-file layout, refused on open.
	walFileName  = "wal.log"
	ckptFileName = "checkpoint"

	metaFileName = "store.meta"
	lockFileName = "LOCK"
	metaHeader   = "sds-segmented-store v1"
)

func segWalName(i int) string  { return fmt.Sprintf("wal-%03d.log", i) }
func segCkptName(i int) string { return fmt.Sprintf("checkpoint-%03d", i) }

func (s *FileStore) segWalPath(i int) string  { return filepath.Join(s.dir, segWalName(i)) }
func (s *FileStore) segCkptPath(i int) string { return filepath.Join(s.dir, segCkptName(i)) }

// ckptMagic opens every checkpoint image: "SDSC" + format version 3.
// The body stores every block behind its uvarint length prefix — byte
// for byte the opReadBlocks wire encoding — so a contiguous run of
// checkpoint-resident blocks is a wire-exact file span the sendfile
// serve tier ships with one syscall; a block-index footer (see
// ckptindex.go) follows the body, its block refs pointing at the
// payloads past their prefixes.
var ckptMagic = []byte{'S', 'D', 'S', 'C', 3}

// checkCkptMagic refuses any image but v3. The retired v1 (footerless)
// and v2 (unprefixed blocks) formats are named in the error.
func checkCkptMagic(path string, data []byte) error {
	if bytes.HasPrefix(data, ckptMagic) {
		return nil
	}
	if len(data) >= len(ckptMagic) && bytes.HasPrefix(data, ckptMagic[:4]) && (data[4] == 1 || data[4] == 2) {
		return fmt.Errorf("dsp: %s: checkpoint image format v%d is retired; only v3 images are read", path, data[4])
	}
	return fmt.Errorf("dsp: %s: bad checkpoint magic", path)
}

// NewFileStore opens (or creates) a durable store in dir with default
// options.
func NewFileStore(dir string) (*FileStore, error) {
	return NewFileStoreOptions(dir, FileStoreOptions{})
}

// NewFileStoreOptions opens (or creates) a durable store in dir,
// recovering from the segment checkpoints and logs found there. A
// directory already open (this process or another) fails with
// ErrStoreLocked; a lock left by a dead process is reclaimed.
func NewFileStoreOptions(dir string, opts FileStoreOptions) (*FileStore, error) {
	if opts.Shards == 0 {
		opts.Shards = DefaultShards
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	if err := refuseSingleFileLayout(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := acquireDirLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, err
	}
	s := &FileStore{dir: dir, opts: opts, lock: lock}
	start := time.Now()
	if err := s.openDir(); err != nil {
		// Release whatever a partial open acquired — the lock, any
		// segment logs already opened before the failure, and any
		// checkpoint mappings — so a caller retrying the open (say,
		// after repairing a corrupt checkpoint) does not accumulate
		// file descriptors or mappings.
		for _, seg := range s.segs {
			if seg.wal != nil {
				_ = seg.wal.close()
			}
			if seg.region != nil {
				seg.region.release()
			}
		}
		_ = lock.release()
		return nil, err
	}
	// Self-heal: a segment whose image failed footer validation was
	// heap-loaded from its body; re-checkpoint it now (the image is
	// rewritten from the just-recovered state and its mapping installed)
	// so it is served mapped from here on. Counted into the recovery
	// time.
	for _, seg := range s.segs {
		if seg.needRewrite {
			if err := s.checkpointSegmentMode(seg, true); err != nil {
				_ = s.Close()
				return nil, fmt.Errorf("dsp: rewriting the checkpoint of segment %d: %w", seg.idx, err)
			}
			seg.needRewrite = false
			s.footerMigrations++
		}
	}
	s.recovery = time.Since(start)
	s.gc = newGroupCommitter()
	if s.opts.CheckpointBytes > 0 {
		s.segBudget = s.opts.CheckpointBytes / int64(len(s.segs))
		if s.segBudget < 1 {
			s.segBudget = 1
		}
	}
	s.startCheckpointWorker()
	return s, nil
}

// refuseSingleFileLayout fails the open of a directory holding the
// retired single-file layout (wal.log and/or checkpoint, no store.meta)
// before anything in it is touched — not even the LOCK file.
func refuseSingleFileLayout(dir string) error {
	if fileExists(filepath.Join(dir, metaFileName)) {
		return nil
	}
	for _, name := range []string{walFileName, ckptFileName} {
		if fileExists(filepath.Join(dir, name)) {
			return fmt.Errorf("dsp: %s holds a store in the retired single-file layout (%s, %s, no %s); "+
				"only the segmented layout is read", dir, walFileName, ckptFileName, metaFileName)
		}
	}
	return nil
}

// openDir recovers the segmented store in the directory, or creates one.
// The meta file is authoritative: its presence means the segment count
// is fixed.
func (s *FileStore) openDir() error {
	// Sweep temp files a crashed checkpoint or meta write left behind.
	if tmps, err := filepath.Glob(filepath.Join(s.dir, "*.tmp-*")); err == nil {
		for _, t := range tmps {
			_ = os.Remove(t)
		}
	}
	nSeg, err := readSegmentMeta(s.dir)
	if err != nil {
		return err
	}
	if nSeg > 0 {
		s.mem = NewMemStoreShards(nSeg)
		s.makeSegments(nSeg)
		return s.recoverSegments()
	}
	s.mem = NewMemStoreShards(s.opts.Shards)
	s.makeSegments(s.opts.Shards)
	// Create the logs before the meta: the directory fsync that makes
	// the meta durable then makes their entries durable too. Nothing
	// else syncs the directory before the first checkpoint, and a commit
	// acknowledged into a log whose entry a crash loses would replay as
	// an empty log.
	for _, seg := range s.segs {
		w, err := openWalWriter(s.segWalPath(seg.idx), 0, s.opts.NoSync)
		if err != nil {
			return err
		}
		seg.wal = w
	}
	return writeSegmentMeta(s.dir, len(s.segs), s.opts.NoSync)
}

func (s *FileStore) makeSegments(n int) {
	s.segs = make([]*segment, n)
	for i := range s.segs {
		s.segs[i] = &segment{idx: i, pending: make(map[string]chan struct{})}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// readSegmentMeta returns the persisted segment count, or 0 when the
// directory has no meta file (a fresh store).
func readSegmentMeta(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) != 4 || fields[0]+" "+fields[1] != metaHeader || fields[2] != "segments" {
		return 0, fmt.Errorf("dsp: %s/%s: malformed store meta", dir, metaFileName)
	}
	n, err := strconv.Atoi(fields[3])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("dsp: %s/%s: bad segment count %q", dir, metaFileName, fields[3])
	}
	return n, nil
}

// writeSegmentMeta persists the segment count via temp file + atomic
// rename, then fsyncs the directory: once the meta is durable the
// segmented layout is the store.
func writeSegmentMeta(dir string, n int, noSync bool) error {
	tmp, err := os.CreateTemp(dir, metaFileName+".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if _, err := fmt.Fprintf(tmp, "%s\nsegments %d\n", metaHeader, n); err != nil {
		return cleanup(err)
	}
	if !noSync {
		if err := tmp.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, metaFileName)); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if noSync {
		return nil
	}
	return syncDir(dir)
}

// segRecovery accumulates one segment's replay outcome (workers write
// their own struct; the opener aggregates after the join).
type segRecovery struct {
	replayed, skipped int64
	torn              bool
}

// recoverSegments loads every segment's checkpoint and replays its log,
// fanned out over RecoveryParallelism workers. Segments are independent
// by construction — a document's whole history lives in the segment its
// id hashes to — so the only shared state is the MemStore, whose shard
// locks fence the concurrent applies.
func (s *FileStore) recoverSegments() error {
	workers := s.opts.RecoveryParallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.segs) {
		workers = len(s.segs)
	}

	recs := make([]segRecovery, len(s.segs))
	errs := make([]error, len(s.segs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				errs[i] = s.recoverSegment(i, &recs[i])
			}
		}()
	}
	for i := range s.segs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("dsp: recovering %s segment %d: %w", s.dir, i, err)
		}
	}
	for _, rec := range recs {
		s.replayed += rec.replayed
		s.skipped += rec.skipped
		s.tornTail = s.tornTail || rec.torn
	}
	return nil
}

// recoverSegment restores one segment: checkpoint image, then log
// replay. Staged updates were never logged, so a handshake a crash
// interrupted leaves nothing behind.
//
// With the mmap tier on, the image is mapped and its documents
// installed as views into the mapping — recovery reads the index
// footer, not the full image, and the blocks never become heap
// resident. An image whose footer fails validation falls back to the
// heap loader and is marked for a one-shot rewrite.
func (s *FileStore) recoverSegment(i int, rec *segRecovery) error {
	path := s.segCkptPath(i)
	mapped := false
	if mmapOn {
		var err error
		if mapped, err = s.loadCheckpointMapped(s.segs[i]); err != nil {
			return err
		}
	}
	if !mapped {
		if err := s.loadCheckpointFile(path); err != nil {
			return err
		}
		s.segs[i].needRewrite = mmapOn && fileExists(path)
	}
	size, torn, err := replayWal(s.segWalPath(i), func(body []byte) error {
		return s.applyRecord(body, rec)
	})
	if err != nil {
		return err
	}
	rec.torn = torn
	w, err := openWalWriter(s.segWalPath(i), size, s.opts.NoSync)
	if err != nil {
		return err
	}
	s.segs[i].wal = w
	return nil
}

// seg routes a document to its segment — the same hash, modulus and
// index as the MemStore shard, so segment i's log describes exactly
// shard i's contents.
func (s *FileStore) seg(docID string) *segment {
	return s.segs[shardHash(docID, 0)%uint32(len(s.segs))]
}

// Stats snapshots the durability counters (summed over segments).
func (s *FileStore) Stats() FileStoreStats {
	st := FileStoreStats{
		Checkpoints:            s.checkpoints.Load(),
		ReplayedRecords:        s.replayed,
		SkippedRecords:         s.skipped,
		TornTail:               s.tornTail,
		SegmentCount:           len(s.segs),
		RecoveryDuration:       s.recovery,
		LastCheckpointDuration: time.Duration(s.lastCkpt.Load()),
	}
	st.MappedBytes = s.mappedBytes.Load()
	st.MmapReads = s.mmapReads.Load()
	st.HeapReads = s.heapReads.Load()
	st.MadviseCalls = s.madviseCalls.Load()
	st.FooterMigrations = s.footerMigrations
	st.SendfileReads = s.sf.reads.Load()
	st.SendfileBytes = s.sf.bytes.Load()
	st.SendfileFallbacks = s.sf.fallbacks.Load()
	if s.gc != nil {
		// One consistent pair: both counters mutate under gc.mu, so a
		// snapshot there can never observe a round without its waiters
		// (SyncWaits >= SyncRounds always holds for callers).
		st.SyncWaits, st.SyncRounds = s.gc.statsSnapshot()
	}
	for _, seg := range s.segs {
		// Read without the log mutex (a checkpoint may hold it for a
		// whole image write), in an order that never counts a record
		// without its bytes.
		rec, app, syn, size := seg.wal.statsSnapshot()
		st.Records += rec
		st.AppendedBytes += app
		st.Syncs += syn
		st.WALBytes += size
	}
	return st
}

// Close stops the background checkpointer, makes every segment log
// durable and releases the files, the checkpoint mappings and the
// directory lock. It does not checkpoint: reopening replays the logs.
// Long-lived servers call Checkpoint before Close for an instant next
// start. The store must not be used after Close — with the mmap tier
// on, checkpoint-resident blocks unmap once in-flight pins drain.
func (s *FileStore) Close() error {
	s.stopCheckpointWorker()
	if s.gc != nil {
		s.gc.stop()
	}
	var first error
	for _, seg := range s.segs {
		if seg.wal != nil {
			if err := seg.wal.syncTo(seg.wal.size()); err != nil && first == nil {
				first = err
			}
			if err := seg.wal.close(); err != nil && first == nil {
				first = err
			}
		}
		// Retire the segment's mapping: the owner reference drops here,
		// and the munmap runs once any still-pinned responses release.
		sh := &s.mem.shards[seg.idx]
		sh.mu.Lock()
		region := seg.region
		seg.region = nil
		sh.mu.Unlock()
		if region != nil {
			s.mappedBytes.Add(-int64(len(region.data)))
			region.release()
		}
	}
	if err := s.lock.release(); err != nil && first == nil {
		first = err
	}
	return first
}

func (s *FileStore) fail(err error) error {
	s.broken.CompareAndSwap(nil, err)
	return err
}

func (s *FileStore) failed() error {
	if err, ok := s.broken.Load().(error); ok {
		return fmt.Errorf("dsp: durable store is read-only after a log failure: %w", err)
	}
	return nil
}

// commit logs one mutation of docID and publishes it once it is
// durable. prepare checks the mutation against the published state and
// returns the step that installs it; it runs under the segment's log
// mutex and the shard lock, with no other mutation of docID logged and
// unpublished, so apply order equals log order for the document while
// writers to other documents share the segment's fsync rounds. Until
// the barrier returns, readers see the version before it. A record too
// large for the log is refused first: the caller gets a plain
// validation error, not a store latched read-only over its own input.
func (s *FileStore) commit(docID string, record []byte, prepare func(sh *memShard) (func(), error)) error {
	if len(record) > maxWalRecord {
		return fmt.Errorf("dsp: mutation of %d bytes exceeds the %d-byte wal record limit", len(record), maxWalRecord)
	}
	seg := s.seg(docID)
	sh := &s.mem.shards[seg.idx]
	seg.wal.mu.Lock()
	sh.mu.Lock()
	for wait := seg.pending[docID]; wait != nil; wait = seg.pending[docID] {
		sh.mu.Unlock()
		seg.wal.mu.Unlock()
		<-wait
		seg.wal.mu.Lock()
		sh.mu.Lock()
	}
	err := s.failed()
	var publish func()
	if err == nil {
		publish, err = prepare(sh)
	}
	if err != nil {
		sh.mu.Unlock()
		seg.wal.mu.Unlock()
		return err
	}
	done := make(chan struct{})
	seg.pending[docID] = done
	sh.mu.Unlock()
	off, err := seg.wal.append(record)
	seg.wal.mu.Unlock()
	if err == nil {
		err = s.gc.wait(seg.wal, off)
	}
	sh.mu.Lock()
	if err == nil {
		publish()
	}
	delete(seg.pending, docID)
	sh.mu.Unlock()
	close(done)
	if err != nil {
		return s.fail(err)
	}
	s.scheduleCheckpoint(seg)
	return nil
}

// drainPending waits until no mutation of the segment is logged and
// unpublished. The caller holds the log mutex, so none can start.
func (s *FileStore) drainPending(seg *segment) {
	sh := &s.mem.shards[seg.idx]
	sh.mu.RLock()
	for len(seg.pending) > 0 {
		var wait chan struct{}
		for _, wait = range seg.pending {
			break
		}
		sh.mu.RUnlock()
		<-wait
		sh.mu.RLock()
	}
	sh.mu.RUnlock()
}

// PutDocument implements Store: logged, made durable, then published
// and acknowledged.
func (s *FileStore) PutDocument(c *docenc.Container) error {
	if err := checkContainer(c); err != nil {
		return err
	}
	img, err := c.MarshalBinary()
	if err != nil {
		return err
	}
	body := append([]byte{recPutDocument}, img...)
	return s.commit(c.Header.DocID, body, func(sh *memShard) (func(), error) {
		return func() { sh.docs[c.Header.DocID] = c }, nil
	})
}

// PutRuleSet implements Store (durable before acknowledged). Rule sets
// live in their document's segment, like their shard in memory.
func (s *FileStore) PutRuleSet(docID, subject string, version uint32, sealed []byte) error {
	body := []byte{recPutRuleSet}
	body = wire.AppendString(body, docID)
	body = wire.AppendString(body, subject)
	body = binary.AppendUvarint(body, uint64(version))
	body = wire.AppendBytes(body, sealed)
	return s.commit(docID, body, func(sh *memShard) (func(), error) {
		return sh.putRuleSet(docID, subject, version, sealed)
	})
}

// Header implements Store from memory.
func (s *FileStore) Header(docID string) (docenc.Header, error) { return s.mem.Header(docID) }

// lookupLocked resolves a document and its segment under the shard read
// lock — the tiered read paths share it. The caller must RUnlock sh.
func (s *FileStore) lookupLocked(docID string) (*segment, *memShard, *docenc.Container, error) {
	seg := s.seg(docID)
	sh := &s.mem.shards[seg.idx] // same hash and modulus as mem.shard
	sh.mu.RLock()
	c, ok := sh.docs[docID]
	if !ok {
		sh.mu.RUnlock()
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownDocument, docID)
	}
	return seg, sh, c, nil
}

// ReadBlock implements Store. The Store contract hands out blocks that
// stay valid indefinitely, so a checkpoint-resident block is copied out
// of the mapping while the shard lock still pins the region; the
// zero-copy path is ReadBlocksPinned.
func (s *FileStore) ReadBlock(docID string, idx int) ([]byte, error) {
	seg, sh, c, err := s.lookupLocked(docID)
	if err != nil {
		return nil, err
	}
	defer sh.mu.RUnlock()
	if idx < 0 || idx >= len(c.Blocks) {
		return nil, fmt.Errorf("dsp: block %d out of range [0,%d) for %q", idx, len(c.Blocks), docID)
	}
	b := c.Blocks[idx]
	if seg.region.contains(b) {
		s.mmapReads.Add(1)
		return append(make([]byte, 0, len(b)), b...), nil
	}
	s.heapReads.Add(1)
	return b, nil
}

// ReadBlocks implements BlockRangeReader. Like ReadBlock, mapped blocks
// are copied to heap under the shard lock so the returned slices obey
// the Store contract; WAL-resident (heap) blocks are referenced as
// always.
func (s *FileStore) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	seg, sh, c, err := s.lookupLocked(docID)
	if err != nil {
		return nil, err
	}
	defer sh.mu.RUnlock()
	// Bounds are checked without computing start+count, which a hostile
	// wire request can overflow.
	if start < 0 || count < 0 || start > len(c.Blocks) || count > len(c.Blocks)-start {
		return nil, fmt.Errorf("dsp: block range [%d,+%d) out of range [0,%d) for %q",
			start, count, len(c.Blocks), docID)
	}
	reg := seg.region
	out := make([][]byte, count)
	var heap int64
	for i := 0; i < count; i++ {
		b := c.Blocks[start+i]
		if reg.contains(b) {
			out[i] = append(make([]byte, 0, len(b)), b...)
		} else {
			out[i] = b
			heap++
		}
	}
	s.mmapReads.Add(int64(count) - heap)
	s.heapReads.Add(heap)
	return out, nil
}

// ReadBlocksPinned implements PinnedBlockReader: checkpoint-resident
// blocks are returned as views straight into the segment's mapped image
// — no heap copy anywhere between the disk page cache and the caller —
// kept valid by a single pin per call appended to *pins. The pin is
// acquired under the shard read lock, which installMapping's swap (the
// only path that retires a region) excludes, so a view can never
// outlive its mapping unpinned.
func (s *FileStore) ReadBlocksPinned(docID string, start, count int, pins *[]BlockPin) ([][]byte, bool, error) {
	return readPinned(s, docID, start, count, pins)
}

// readRun implements runReader. With runs non-nil (and the sendfile
// tier on) contiguous checkpoint-resident stretches of the range also
// come back as (file, offset, span) runs the connection writer ships
// with one syscall each. The pin keeps both the mapping and the
// underlying file open, so a run outlives an epoch retirement
// mid-flush.
func (s *FileStore) readRun(dst [][]byte, docID string, start, count int, pins *[]BlockPin, runs *[]wireRun) ([][]byte, error) {
	seg, sh, c, err := s.lookupLocked(docID)
	if err != nil {
		return nil, err
	}
	defer sh.mu.RUnlock()
	if start < 0 || count < 0 || start > len(c.Blocks) || count > len(c.Blocks)-start {
		return nil, fmt.Errorf("dsp: block range [%d,+%d) out of range [0,%d) for %q",
			start, count, len(c.Blocks), docID)
	}
	dst = append(dst, c.Blocks[start:start+count]...)
	out := dst[len(dst)-count:]
	var mapped, mappedBytes int64
	var first, last []byte
	if reg := seg.region; reg != nil {
		for _, b := range out {
			if reg.contains(b) {
				mapped++
				mappedBytes += int64(len(b))
				if first == nil {
					first = b
				}
				last = b
			}
		}
		if mapped > 0 {
			reg.acquire()
			*pins = append(*pins, BlockPin{r: reg})
			sent := false
			if runs != nil && sendfileOn && reg.f != nil {
				n := len(*runs)
				s.collectWireRuns(reg, out, runs)
				sent = len(*runs) > n
			}
			// A large cold run is about to stream out of the mapping
			// (disk → page cache → writev): prime the readahead. Small
			// runs skip the syscall — the page cache wins on its own —
			// and so does a read that goes out by sendfile, which reads
			// the page cache itself.
			if !sent && mappedBytes >= madviseRunBytes {
				if sp := reg.span(first, last); madviseSpan(reg.data, sp, adviseWillNeed) {
					s.madviseCalls.Add(1)
				}
			}
		}
	}
	s.mmapReads.Add(mapped)
	s.heapReads.Add(int64(count) - mapped)
	return dst, nil
}

// collectWireRuns walks a pinned read's blocks and appends every
// contiguous checkpoint span worth a sendfile. A block joins the
// current run when its wire prefix starts exactly where the previous
// block's payload ended — the image layout for blocks written
// back-to-back — and each prefix is verified to decode to the block's
// length, so the span is wire-exact by construction, not by trust in
// the footer. Runs under sendfileMinRunBytes stay on the writev path.
func (s *FileStore) collectWireRuns(reg *mmapRegion, blocks [][]byte, runs *[]wireRun) {
	runStart := -1
	var spanLo, spanEnd int64
	flush := func(end int) {
		if runStart < 0 {
			return
		}
		if spanEnd-spanLo >= sendfileMinRunBytes {
			*runs = append(*runs, wireRun{
				Start: runStart, Count: end - runStart,
				Span: reg.data[spanLo:spanEnd:spanEnd],
				File: reg.f, Off: spanLo, Stats: &s.sf,
			})
		}
		runStart = -1
	}
	for i, b := range blocks {
		off := reg.offsetOf(b)
		if off < 0 {
			flush(i)
			continue
		}
		pl := int64(uvarintLen(uint64(len(b))))
		lo := off - pl
		if lo < 0 || !wirePrefixValid(reg.data[lo:off], len(b)) {
			flush(i)
			continue
		}
		if runStart >= 0 && lo == spanEnd {
			spanEnd = off + int64(len(b))
			continue
		}
		flush(i)
		runStart = i
		spanLo, spanEnd = lo, off+int64(len(b))
	}
	flush(len(blocks))
}

// wirePrefixValid reports that p is exactly the uvarint encoding of n.
func wirePrefixValid(p []byte, n int) bool {
	v, w := binary.Uvarint(p)
	return w == len(p) && v == uint64(n)
}

// RuleSet implements Store from memory.
func (s *FileStore) RuleSet(docID, subject string) ([]byte, error) {
	return s.mem.RuleSet(docID, subject)
}

// ListDocuments implements Store from memory.
func (s *FileStore) ListDocuments() ([]string, error) { return s.mem.ListDocuments() }

// CommitDelta implements DeltaCommitter: one record — base, header and
// every changed block — one barrier, shared with concurrent commits
// (group commit), and only then the new version is published.
func (s *FileStore) CommitDelta(d *docenc.DeltaUpdate) (h docenc.Header, err error) {
	err = s.commit(d.Header.DocID, appendDelta([]byte{recCommitDelta}, d), func(sh *memShard) (install func(), err error) {
		install, h, err = sh.commitDelta(d)
		return install, err
	})
	return h, err
}

// BeginUpdate implements DocUpdater. Staged updates live in memory
// only: nothing reaches the log before the commit, which is one
// CommitDelta record.
func (s *FileStore) BeginUpdate(h docenc.Header, base uint32) (uint64, error) {
	return s.mem.BeginUpdate(h, base)
}

// PutBlocks implements DocUpdater (in memory, see BeginUpdate).
func (s *FileStore) PutBlocks(token uint64, start int, b [][]byte) error {
	return s.mem.PutBlocks(token, start, b)
}

// CommitUpdate implements DocUpdater through CommitDelta.
func (s *FileStore) CommitUpdate(token uint64) error {
	d, err := s.mem.takeUpdate(token)
	if err == nil {
		_, err = s.CommitDelta(d)
	}
	return err
}

// AbortUpdate implements DocUpdater.
func (s *FileStore) AbortUpdate(token uint64) error { return s.mem.AbortUpdate(token) }

// uvarintLen is the encoded size of v — the wire prefix the image
// stores ahead of each block.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// applyRecord replays one WAL record during recovery. Parse failures of
// a CRC-clean record mean real corruption and abort the open; apply
// failures mean the record was superseded (checkpoint overlap, a
// duplicate commit) and are skipped. The replay buffer is the whole log,
// so the blocks a record installs are copied out of it.
func (s *FileStore) applyRecord(body []byte, rec *segRecovery) error {
	if len(body) == 0 {
		return errors.New("empty wal record")
	}
	rec.replayed++
	r := wire.NewReader(body[1:])
	var err error
	switch body[0] {
	case recPutDocument:
		c, perr := docenc.UnmarshalContainer(body[1:])
		if perr != nil {
			return fmt.Errorf("put-document record: %w", perr)
		}
		for i := range c.Blocks {
			c.Blocks[i] = append([]byte(nil), c.Blocks[i]...)
		}
		err = s.mem.PutDocument(c)
	case recPutRuleSet:
		docID := r.String()
		subject := r.String()
		version := r.Uvarint()
		sealed := r.Bytes()
		if r.Err() != nil {
			return fmt.Errorf("put-ruleset record: %w", r.Err())
		}
		err = s.mem.PutRuleSet(docID, subject, uint32(version), sealed)
	case recCommitDelta:
		d, perr := readDelta(r)
		if perr != nil {
			return fmt.Errorf("commit record: %w", perr)
		}
		for _, run := range d.Runs {
			for i := range run.Blocks {
				run.Blocks[i] = append([]byte(nil), run.Blocks[i]...)
			}
		}
		_, err = s.mem.CommitDelta(d)
	case recRetiredBegin, recRetiredPutBlocks, recRetiredCommit, recRetiredAbort:
		return fmt.Errorf("wal record type %d is the update handshake's, which stores no longer log; "+
			"open this directory with the release that wrote it and checkpoint it first", body[0])
	default:
		return fmt.Errorf("unknown wal record type %d", body[0])
	}
	if err != nil {
		rec.skipped++
	}
	return nil
}

// startCheckpointWorker launches the background compactor that serves
// scheduleCheckpoint requests — checkpoints run here, never on the
// writer that tripped a threshold.
func (s *FileStore) startCheckpointWorker() {
	s.ckptCh = make(chan int, len(s.segs))
	s.ckptStop = make(chan struct{})
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		for {
			select {
			case <-s.ckptStop:
				return
			case idx := <-s.ckptCh:
				seg := s.segs[idx]
				_ = s.checkpointSegment(seg) // a failure latches broken inside
				seg.ckptQueued.Store(false)
			}
		}
	}()
}

func (s *FileStore) stopCheckpointWorker() {
	s.stopOnce.Do(func() {
		if s.ckptStop != nil {
			close(s.ckptStop)
			s.ckptWG.Wait()
		}
	})
}

// scheduleCheckpoint enqueues a segment for background compaction when
// its log crossed the per-segment budget. One request per segment is
// outstanding at a time; if the log keeps growing during the
// checkpoint, the next durable commit re-triggers.
func (s *FileStore) scheduleCheckpoint(seg *segment) {
	if s.segBudget <= 0 || seg.wal.size() < s.segBudget {
		return
	}
	if !seg.ckptQueued.CompareAndSwap(false, true) {
		return
	}
	select {
	case s.ckptCh <- seg.idx:
	default:
		// Unreachable while the channel holds one slot per segment, but
		// never block a committer on the compactor.
		seg.ckptQueued.Store(false)
	}
}

// Checkpoint compacts every segment: each image is streamed to disk
// (temp file, fsync, atomic rename) and the log it absorbs truncated.
// Segments checkpoint in parallel and independently — writers to a
// segment wait only while their segment compacts.
func (s *FileStore) Checkpoint() error {
	start := time.Now()
	errs := make([]error, len(s.segs))
	var wg sync.WaitGroup
	for i, seg := range s.segs {
		wg.Add(1)
		go func(i int, seg *segment) {
			defer wg.Done()
			errs[i] = s.checkpointSegment(seg)
		}(i, seg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.lastCkpt.Store(int64(time.Since(start)))
	return nil
}

// checkpointSegment compacts one segment: wait out its logged,
// unpublished mutations, stream its shard's image, publish it, truncate
// its log. Only writers to this segment block for the duration; reads
// and the other segments never notice.
func (s *FileStore) checkpointSegment(seg *segment) error {
	return s.checkpointSegmentMode(seg, false)
}

// checkpointSegmentMode is checkpointSegment with the empty-log skip
// explicit: the open-time footer heal forces an image rewrite even when
// the log is empty (the image content is unchanged — only the footer is
// rebuilt).
func (s *FileStore) checkpointSegmentMode(seg *segment, force bool) error {
	seg.ckptMu.Lock()
	defer seg.ckptMu.Unlock()
	if err := s.failed(); err != nil {
		return err
	}
	seg.wal.mu.Lock()
	defer seg.wal.mu.Unlock()
	// With the log mutex held no mutation can be logged; once those
	// already logged are published, the shard state is exactly what the
	// log says, and stays so until the image is written and the log
	// truncated.
	s.drainPending(seg)
	if s.testCkptGate != nil {
		s.testCkptGate(seg.idx)
	}
	// An empty log means the published image already equals the shard
	// state: rewriting the image would only burn fsyncs. This is what
	// keeps an explicit all-segment Checkpoint — every sdsctl exit,
	// every dspd shutdown — proportional to churn, not to shard count.
	if seg.wal.size() == 0 && !force {
		return nil
	}
	start := time.Now()

	if err := s.writeSegmentImage(seg.idx); err != nil {
		return s.fail(err)
	}
	// The image now carries everything this segment's log said.
	if err := seg.wal.reset(); err != nil {
		return s.fail(err)
	}
	// Tier swap: serve the just-published image via mmap and let the
	// heap copies (the segment's former working set) go to the GC. Still
	// under wal.mu, so the shard state equals the image exactly.
	s.installMapping(seg)
	s.checkpoints.Add(1)
	s.lastCkpt.Store(int64(time.Since(start)))
	return nil
}

// writeSegmentImage streams shard idx's committed state into
// checkpoint-NNN via a buffered writer and temp-file + atomic rename —
// one document at a time, never the whole image in memory. The caller
// holds the segment's log mutex, so no mutation of this shard is in
// flight; the shard read-lock fences the map walk.
func (s *FileStore) writeSegmentImage(idx int) error {
	tmp, err := os.CreateTemp(s.dir, segCkptName(idx)+".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	bw := bufio.NewWriterSize(tmp, 256<<10)
	cw := &countingWriter{w: bw}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := cw.Write(scratch[:n])
		return err
	}

	// The index entries collected while streaming the body; serialized
	// as the footer once the body (and its rules offset) is known.
	var entries []ckptDocEntry
	var rulesOff int64
	sh := &s.mem.shards[idx]
	sh.mu.RLock()
	err = func() error {
		if _, err := cw.Write(ckptMagic); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(sh.docs))); err != nil {
			return err
		}
		for _, c := range sh.docs {
			// The image layout of one document is its header bytes
			// followed by wire-encoded blocks — each behind its uvarint
			// length prefix, exactly as opReadBlocks frames it — streamed
			// block by block. Footer refs point at the payloads, so the
			// mapped tier's views skip the prefixes; the sendfile tier
			// ships whole [prefix][payload]... runs verbatim.
			hdr, err := c.Header.MarshalBinary()
			if err != nil {
				return err
			}
			total := len(hdr)
			for _, b := range c.Blocks {
				total += uvarintLen(uint64(len(b))) + len(b)
			}
			if err := writeUvarint(uint64(total)); err != nil {
				return err
			}
			e := ckptDocEntry{
				docID:   c.Header.DocID,
				version: c.Header.Version,
				hdrOff:  cw.n,
				hdrLen:  int64(len(hdr)),
				blocks:  make([]ckptBlockRef, 0, len(c.Blocks)),
			}
			if _, err := cw.Write(hdr); err != nil {
				return err
			}
			for _, b := range c.Blocks {
				if err := writeUvarint(uint64(len(b))); err != nil {
					return err
				}
				e.blocks = append(e.blocks, ckptBlockRef{off: cw.n, len: int64(len(b))})
				if _, err := cw.Write(b); err != nil {
					return err
				}
			}
			entries = append(entries, e)
		}
		rulesOff = cw.n
		if err := writeUvarint(uint64(len(sh.rules))); err != nil {
			return err
		}
		for k, e := range sh.rules {
			if err := writeUvarint(uint64(len(k))); err != nil {
				return err
			}
			if _, err := cw.WriteString(k); err != nil {
				return err
			}
			if err := writeUvarint(uint64(e.version)); err != nil {
				return err
			}
			if err := writeUvarint(uint64(len(e.sealed))); err != nil {
				return err
			}
			if _, err := cw.Write(e.sealed); err != nil {
				return err
			}
		}
		// The block-index footer: offsets into the body just written,
		// CRC'd, terminated by its own magic. The heap loader parses the
		// body and never looks here.
		_, err := cw.Write(appendCkptIndex(nil, entries, rulesOff))
		return err
	}()
	sh.mu.RUnlock()
	if err != nil {
		return cleanup(err)
	}
	if err := bw.Flush(); err != nil {
		return cleanup(err)
	}
	// The image must be durable before the rename publishes it, or the
	// rename could survive a crash that the contents did not.
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.segCkptPath(idx)); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	// The directory entry must survive too: a failed directory fsync
	// after the rename is a durability failure like any other, not a
	// shrug (filesystems that cannot fsync directories report ENOTSUP,
	// which syncDir forgives).
	if !s.opts.NoSync {
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}
	return nil
}

// countingWriter tracks the logical file offset of everything streamed
// through it — the offsets the checkpoint writer records in the index
// footer.
type countingWriter struct {
	w *bufio.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) WriteString(s string) (int, error) {
	n, err := c.w.WriteString(s)
	c.n += int64(n)
	return n, err
}

// loadCheckpointFile reads one segment's checkpoint image (if present)
// into the in-memory store: the heap tier of platforms without mmap, and
// the fallback for an image whose footer fails validation.
func (s *FileStore) loadCheckpointFile(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := checkCkptMagic(path, data); err != nil {
		return err
	}
	// The body parse reads exactly nDocs + nRules entries and leaves the
	// trailing index footer untouched.
	r := wire.NewReader(data[len(ckptMagic):])
	nDocs := r.Uvarint()
	for i := uint64(0); i < nDocs; i++ {
		img := r.Bytes()
		if r.Err() != nil {
			break
		}
		c, err := unmarshalWireDoc(img)
		if err != nil {
			return fmt.Errorf("dsp: checkpoint document %d: %w", i, err)
		}
		if err := s.mem.PutDocument(c); err != nil {
			return fmt.Errorf("dsp: checkpoint document %d: %w", i, err)
		}
	}
	nRules := r.Uvarint()
	for i := uint64(0); i < nRules; i++ {
		key := r.String()
		version := r.Uvarint()
		sealed := r.Bytes()
		if r.Err() != nil {
			break
		}
		docID, subject, ok := splitRuleKey(key)
		if !ok {
			return fmt.Errorf("dsp: checkpoint rule %d: malformed key", i)
		}
		if err := s.mem.PutRuleSet(docID, subject, uint32(version), sealed); err != nil {
			return fmt.Errorf("dsp: checkpoint rule %d: %w", i, err)
		}
	}
	if r.Err() != nil {
		return fmt.Errorf("dsp: truncated checkpoint %s: %w", path, r.Err())
	}
	return nil
}

// unmarshalWireDoc parses one per-document image: header bytes, then
// every block behind its uvarint wire prefix. Each prefix is checked
// against the header's stored-length geometry — the same
// cross-validation the mapped tier applies to footer entries — so a
// corrupt image fails here instead of serving misframed blocks.
func unmarshalWireDoc(img []byte) (*docenc.Container, error) {
	h, n, err := docenc.UnmarshalHeader(img)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(img[n:])
	blocks := make([][]byte, 0, h.NumBlocks())
	for i := 0; i < h.NumBlocks(); i++ {
		b := r.Bytes()
		if r.Err() != nil {
			return nil, fmt.Errorf("dsp: wire-prefixed block %d: %w", i, r.Err())
		}
		if len(b) != h.BlockStoredLen(i) {
			return nil, fmt.Errorf("dsp: wire-prefixed block %d: length %d, geometry says %d",
				i, len(b), h.BlockStoredLen(i))
		}
		blocks = append(blocks, b)
	}
	if !r.Done() {
		return nil, fmt.Errorf("dsp: %d trailing bytes after wire-prefixed document", len(r.Peek()))
	}
	return &docenc.Container{Header: h, Blocks: blocks}, nil
}

// containerFromEntry builds a document container whose blocks are views
// into the mapped image, cross-validating the index entry against the
// header bytes it points at. The header itself is fully copied out of
// the mapping by UnmarshalHeader (strings, MAC, generation runs), so a
// retired region is pinned only by block views, never by metadata.
func containerFromEntry(region *mmapRegion, e *ckptDocEntry) (*docenc.Container, error) {
	h, n, err := docenc.UnmarshalHeader(region.data[e.hdrOff : e.hdrOff+e.hdrLen])
	if err != nil {
		return nil, err
	}
	if int64(n) != e.hdrLen || h.DocID != e.docID || h.Version != e.version {
		return nil, fmt.Errorf("dsp: checkpoint index entry for %q disagrees with image header", e.docID)
	}
	if h.NumBlocks() != len(e.blocks) {
		return nil, fmt.Errorf("dsp: checkpoint index for %q lists %d blocks, geometry has %d",
			e.docID, len(e.blocks), h.NumBlocks())
	}
	blocks := make([][]byte, len(e.blocks))
	for i, br := range e.blocks {
		if int(br.len) != h.BlockStoredLen(i) {
			return nil, fmt.Errorf("dsp: checkpoint index for %q block %d: length %d, geometry says %d",
				e.docID, i, br.len, h.BlockStoredLen(i))
		}
		blocks[i] = region.data[br.off : br.off+br.len : br.off+br.len]
	}
	return &docenc.Container{Header: h, Blocks: blocks}, nil
}

// loadCheckpointMapped maps one segment's checkpoint image and installs
// its documents as views into the mapping, driven by the index footer —
// no full-image read, no heap copies of block payloads. It reports
// false (and no error) whenever the mapping path cannot serve this
// image — file absent or empty, a footer that fails validation — and
// the caller falls back to the heap loader. Runs
// single-threaded per segment during recovery, before the store is
// visible to any reader.
func (s *FileStore) loadCheckpointMapped(seg *segment) (bool, error) {
	region, err := mapFile(s.segCkptPath(seg.idx))
	switch {
	case os.IsNotExist(err):
		return false, nil // fresh segment
	case errors.Is(err, errMmapUnsupported), errors.Is(err, errMmapEmpty):
		return false, nil // heap loader decides (and reports the empty file)
	case err != nil:
		return false, err
	}
	data := region.data
	if err := checkCkptMagic(s.segCkptPath(seg.idx), data); err != nil {
		region.release()
		return false, err
	}
	// The footer-driven scan is about to fault the whole image in (index
	// entries at the tail, geometry validation over the headers): tell
	// the kernel now so recovery reads ahead instead of faulting page by
	// page.
	if madviseSpan(data, data, adviseWillNeed) {
		s.madviseCalls.Add(1)
	}
	idx, err := parseCkptIndex(data)
	if err != nil {
		// A corrupt footer: the body is the source of truth — heap-load
		// it and rewrite the image with a fresh footer.
		region.release()
		return false, nil
	}
	containers := make([]*docenc.Container, 0, len(idx.docs))
	for i := range idx.docs {
		c, err := containerFromEntry(region, &idx.docs[i])
		if err != nil {
			region.release()
			return false, nil // fall back to the body
		}
		containers = append(containers, c)
	}
	// Validation done — install. PutDocument re-checks geometry and
	// copies nothing; the containers' blocks stay views into the region.
	for _, c := range containers {
		if err := s.mem.PutDocument(c); err != nil {
			region.release()
			return false, fmt.Errorf("dsp: mapped checkpoint document %q: %w", c.Header.DocID, err)
		}
	}
	r := wire.NewReader(data[idx.rulesOff:idx.bodyEnd])
	nRules := r.Uvarint()
	for i := uint64(0); i < nRules; i++ {
		key := r.String()
		version := r.Uvarint()
		sealed := r.Bytes()
		if r.Err() != nil {
			break
		}
		docID, subject, ok := splitRuleKey(key)
		if !ok {
			region.release()
			return false, fmt.Errorf("dsp: mapped checkpoint rule %d: malformed key", i)
		}
		// PutRuleSet copies the sealed bytes, so rules never pin the region.
		if err := s.mem.PutRuleSet(docID, subject, uint32(version), sealed); err != nil {
			region.release()
			return false, fmt.Errorf("dsp: mapped checkpoint rule %d: %w", i, err)
		}
	}
	if r.Err() != nil {
		region.release()
		return false, fmt.Errorf("dsp: truncated mapped checkpoint %s: %w", s.segCkptPath(seg.idx), r.Err())
	}
	seg.region = region
	s.mappedBytes.Add(int64(len(data)))
	return true, nil
}

// installMapping maps the image checkpointSegment just published and
// swaps the shard's checkpoint-covered documents over to views into it
// — this is the eviction that keeps the MemStore working set bounded:
// the heap copies those documents held (their WAL-resident deltas
// included, now absorbed by the image) become garbage the moment the
// swap commits. The caller holds seg.wal.mu with nothing left
// unpublished, so the shard cannot gain new committed state between the
// image write and the swap; the swap
// itself runs under the shard write lock, after which the old region is
// retired (its munmap deferred until in-flight pinned readers drain).
func (s *FileStore) installMapping(seg *segment) {
	if !mmapOn {
		return
	}
	region, err := mapFile(s.segCkptPath(seg.idx))
	if err != nil {
		return // heap keeps serving; the next checkpoint retries
	}
	// Cold reads over a fresh image arrive as forward block runs (the
	// terminal's batched pulls, streaming re-checkpoints): ask for
	// sequential readahead over the whole mapping.
	if madviseSpan(region.data, region.data, adviseSequential) {
		s.madviseCalls.Add(1)
	}
	idx, err := parseCkptIndex(region.data)
	if err != nil {
		region.release()
		return
	}
	fresh := make([]*docenc.Container, 0, len(idx.docs))
	for i := range idx.docs {
		c, err := containerFromEntry(region, &idx.docs[i])
		if err != nil {
			region.release()
			return
		}
		fresh = append(fresh, c)
	}
	sh := &s.mem.shards[seg.idx]
	sh.mu.Lock()
	for _, c := range fresh {
		cur, ok := sh.docs[c.Header.DocID]
		if !ok || cur.Header.Version != c.Header.Version || len(cur.Blocks) != len(c.Blocks) {
			continue // superseded while unlocked (cannot happen under wal.mu; guard anyway)
		}
		// Install a fresh container rather than mutating in place:
		// Snapshot holders keep the container they read, with whatever
		// blocks it had.
		sh.docs[c.Header.DocID] = c
	}
	old := seg.region
	seg.region = region
	sh.mu.Unlock()
	s.mappedBytes.Add(int64(len(region.data)))
	if old != nil {
		s.mappedBytes.Add(-int64(len(old.data)))
		old.release()
	}
}

func splitRuleKey(key string) (docID, subject string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

// syncDir fsyncs a directory so a just-renamed file survives a crash of
// the directory entry itself. Filesystems that cannot fsync a directory
// (EINVAL/ENOTSUP) are forgiven — the rename alone is already atomic —
// but a real failure is returned for the caller to latch.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		if dirSyncUnsupported(serr) {
			return nil
		}
		return serr
	}
	return cerr
}

var (
	_ Store             = (*FileStore)(nil)
	_ DocUpdater        = (*FileStore)(nil)
	_ DeltaCommitter    = (*FileStore)(nil)
	_ PinnedBlockReader = (*FileStore)(nil)
	_ runReader         = (*FileStore)(nil)
)
