package dsp

// Tests of the one-frame delta commit on the durable store: what
// readers are served while a commit waits for its barrier, what a crash
// inside that wait leaves behind, concurrent mutations of one document
// against replay, and the log record kinds stores no longer write.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/docenc"
)

// sealedContainer is crashContainer with a header MAC that names the
// version, so that a commit's base check has a MAC to compare.
func sealedContainer(docID string, version uint32) *docenc.Container {
	c := crashContainer(docID, version)
	binary.BigEndian.PutUint32(c.Header.MAC[:], version)
	return c
}

// nextDelta is the delta that takes the version base holds to the next
// one, rewriting the first and the last block.
func nextDelta(base *docenc.Container) *docenc.DeltaUpdate {
	next := sealedContainer(base.Header.DocID, base.Header.Version+1)
	return &docenc.DeltaUpdate{Header: next.Header, BaseVersion: base.Header.Version, BaseMAC: base.Header.MAC,
		Runs: []docenc.PatchRun{
			{Start: 0, Blocks: next.Blocks[:1]},
			{Start: crashNumBlocks - 1, Blocks: next.Blocks[crashNumBlocks-1:]},
		}}
}

// serveStore serves dspd's stack — a block cache in front of s — on
// loopback and returns its address.
func serveStore(t testing.TB, s Store) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewCache(s, 1<<20))
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

func dialTestPool(t testing.TB, addr string, size int) *Pool {
	t.Helper()
	p, err := DialPool(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// TestRepublishInvisibleUntilDurable: a one-frame commit parked inside
// its barrier — the group committer's round gate holds the fsync — is
// invisible. Readers through dspd's cache and a pool, and through a
// second cache in front of a pool as gatewayd runs it, go on being
// served the old header, and any reader served the new one finds the log
// durable past the commit's record.
func TestRepublishInvisibleUntilDurable(t *testing.T) {
	fs := openFileStore(t, t.TempDir(), FileStoreOptions{})
	defer fs.Close()
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	fs.gc.testRoundGate = func() {
		if armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	}
	addr := serveStore(t, fs)
	writer := dialTestPool(t, addr, 1)
	v1 := sealedContainer("doc", 1)
	if err := writer.PutDocument(v1); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	acked := make(chan error, 1)
	go func() {
		_, err := writer.CommitDelta(nextDelta(v1))
		acked <- err
	}()
	<-parked
	wal := fs.seg("doc").wal
	end := wal.size() // the commit's record is in the log; its barrier is held

	readers := []Store{dialTestPool(t, addr, 2), NewCache(dialTestPool(t, addr, 2), 1<<20)}
	var stop atomic.Bool
	var served [2]atomic.Int64
	errs := make(chan error, len(readers))
	var wg sync.WaitGroup
	for _, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h, err := r.Header("doc")
				if err == nil && (h.Version < 1 || h.Version > 2) {
					err = fmt.Errorf("served version %d", h.Version)
				}
				if err == nil && h.Version == 2 && wal.synced.Load() < end {
					err = fmt.Errorf("version 2 served with the log durable to %d of %d bytes", wal.synced.Load(), end)
				}
				if err != nil {
					errs <- err
					return
				}
				served[h.Version-1].Add(1)
			}
		}()
	}
	for served[0].Load() < 500 && len(errs) == 0 {
		runtime.Gosched()
	}
	if n := served[1].Load(); n != 0 {
		t.Errorf("version 2 served %d times while its commit waited for the disk", n)
	}
	close(release)
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	// The acknowledgement comes after the publish: every read from here on
	// is version 2.
	for _, r := range readers {
		if h, err := r.Header("doc"); err != nil || h.Version != 2 {
			t.Errorf("read after the acknowledgement: version %d, %v", h.Version, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

const barrierCrashEnv = "SDS_BARRIER_CRASH_DIR"

// TestRepublishCrashInsideBarrierChild is the child body of
// TestRepublishCrashInsideBarrier, not a test of its own: it skips
// unless re-executed with the store directory in the environment. It
// parks a one-frame commit inside its barrier for good, reports every
// header its readers are served, and waits to be killed.
func TestRepublishCrashInsideBarrierChild(t *testing.T) {
	dir := os.Getenv(barrierCrashEnv)
	if dir == "" {
		t.Skip("crash-inside-barrier helper; run via TestRepublishCrashInsideBarrier")
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	parked := make(chan struct{})
	fs.gc.testRoundGate = func() {
		if armed.Load() {
			close(parked)
			select {} // the syncer never comes back: the kill lands in here
		}
	}
	v1 := sealedContainer("doc", 1)
	if err := fs.PutDocument(v1); err != nil {
		t.Fatal(err)
	}
	addr := serveStore(t, fs)
	writer := dialTestPool(t, addr, 1)
	armed.Store(true)
	go func() { _, _ = writer.CommitDelta(nextDelta(v1)) }()
	<-parked
	readers := []Store{dialTestPool(t, addr, 1), NewCache(dialTestPool(t, addr, 1), 1<<20)}
	for i := 0; i < 100; i++ {
		for _, r := range readers {
			h, err := r.Header("doc")
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("served %d\n", h.Version)
		}
	}
	fmt.Println("ready")
	select {}
}

// TestRepublishCrashInsideBarrier: SIGKILL lands while a one-frame
// commit is parked inside its barrier. No reader was served the new
// version — its commit was never acknowledged — and the store recovers
// to the old version or the new one, whole either way.
func TestRepublishCrashInsideBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRepublishCrashInsideBarrierChild$")
	cmd.Env = append(os.Environ(), barrierCrashEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	served, ready := 0, false
	var transcript strings.Builder
	for sc := bufio.NewScanner(out); !ready && sc.Scan(); {
		line := sc.Text()
		transcript.WriteString(line + "\n")
		if v, ok := strings.CutPrefix(line, "served "); ok {
			served++
			if v != "1" {
				t.Errorf("a reader was served version %s before its commit was acknowledged", v)
			}
		}
		ready = line == "ready"
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	if !ready || served == 0 {
		t.Fatalf("the child never parked its readers:\n%s", transcript.String())
	}

	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s.Close()
	h, err := s.Header("doc")
	if err != nil || h.Version < 1 || h.Version > 2 {
		t.Fatalf("recovered version %d, %v; want the old version or the new one", h.Version, err)
	}
	blocks, err := s.ReadBlocks("doc", 0, crashNumBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		want := uint32(1)
		if i == 0 || i == crashNumBlocks-1 {
			want = h.Version
		}
		if v := blockVersion(b); v != want {
			t.Fatalf("block %d at version %d under recovered version %d", i, v, h.Version)
		}
	}
	t.Logf("%d reads served version 1 while the commit was parked; recovered at version %d", served, h.Version)
}

// TestRepublishConcurrentCommitsReplay: one-frame commits, whole-document
// puts and rule-set writes of one document race each other and the
// background checkpointer. Every mutation the store applied is in its
// log in the order it applied them, so the reopened store equals the
// live one, byte for byte. Run under -race.
func TestRepublishConcurrentCommitsReplay(t *testing.T) {
	const rounds = 40
	dir := t.TempDir()
	// fsync on: a mutation waits for its barrier logged and unpublished,
	// which is the window the next mutation of the document must respect.
	s := openFileStore(t, dir, FileStoreOptions{Shards: 2, CheckpointBytes: 64 << 10})
	if err := s.PutDocument(sealedContainer("doc", 1)); err != nil {
		t.Fatal(err)
	}
	var committed, moved atomic.Int64
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		run(func(int) error {
			h, err := s.Header("doc")
			if err != nil {
				return err
			}
			switch _, err := s.CommitDelta(nextDelta(&docenc.Container{Header: h})); {
			case err == nil:
				committed.Add(1)
			case errors.Is(err, ErrBaseMoved):
				moved.Add(1)
			default:
				return err
			}
			return nil
		})
	}
	run(func(int) error {
		h, err := s.Header("doc")
		if err != nil {
			return err
		}
		c := sealedContainer("doc", h.Version+1)
		c.Header.MAC[15] = 0xff // another header than a commit's of the same version
		return s.PutDocument(c)
	})
	run(func(i int) error { return s.PutRuleSet("doc", "alice", uint32(i), []byte{byte(i)}) })
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if committed.Load() == 0 || moved.Load() == 0 {
		t.Fatalf("%d commits, %d refused for a moved base: the race did not happen", committed.Load(), moved.Load())
	}
	live, err := s.mem.Snapshot("doc")
	if err != nil {
		t.Fatal(err)
	}
	liveRules, err := s.RuleSet("doc", "alice")
	if err != nil {
		t.Fatal(err)
	}
	crash(s)

	r := openFileStore(t, dir, FileStoreOptions{})
	defer r.Close()
	got, err := r.mem.Snapshot("doc")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.Equal(&live.Header) {
		t.Fatalf("reopened at %+v, live at %+v", got.Header, live.Header)
	}
	for i := range live.Blocks {
		if !bytes.Equal(got.Blocks[i], live.Blocks[i]) {
			t.Fatalf("block %d differs between the reopened store and the live one", i)
		}
	}
	if rules, err := r.RuleSet("doc", "alice"); err != nil || !bytes.Equal(rules, liveRules) {
		t.Fatalf("reopened rules %v, %v; live %v", rules, err, liveRules)
	}
}

// TestFileStoreRefusesHandshakeRecords: a log holding the retired
// update handshake's records is refused at open with an error that says
// so — neither replayed nor skipped.
func TestFileStoreRefusesHandshakeRecords(t *testing.T) {
	for _, kind := range []byte{recRetiredBegin, recRetiredPutBlocks, recRetiredCommit, recRetiredAbort} {
		dir := t.TempDir()
		s := openFileStore(t, dir, FileStoreOptions{})
		if err := s.PutDocument(testContainer(t, "doc")); err != nil {
			t.Fatal(err)
		}
		crash(s)
		appendRaw(t, dir, segForDoc("doc", DefaultShards), frame([]byte{kind, 1}))
		r, err := NewFileStore(dir)
		if err == nil {
			_ = r.Close()
			t.Fatalf("a log with a type %d record opened", kind)
		}
		if !strings.Contains(err.Error(), "handshake") {
			t.Fatalf("type %d record refused with %v", kind, err)
		}
	}
}

// TestRepublishMovedBaseKeepsPoolConnection: a "base moved" reply is a
// well-formed answer, not a transport failure. The one pooled connection
// that carried it stays in service, and the next call goes out on it
// without a redial.
func TestRepublishMovedBaseKeepsPoolConnection(t *testing.T) {
	p := dialTestPool(t, serveStore(t, NewMemStore()), 1)
	held := sealedContainer("doc", 1)
	if err := p.PutDocument(held); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	conn := p.open[0]
	p.mu.Unlock()
	d := nextDelta(held)
	d.BaseMAC[15] ^= 1
	if _, err := p.CommitDelta(d); !errors.Is(err, ErrBaseMoved) {
		t.Fatalf("commit against another header of version 1: %v", err)
	}
	if _, err := p.Header("doc"); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.open) != 1 || p.open[0] != conn {
		t.Fatal("the moved reply cost the pool its connection")
	}
}

// TestStagedUpdateBoundedByCommitLimit: a staged upload commits as one
// delta, which one frame or one log record must hold. The batch that
// takes it past maxFrame bytes is refused — the whole upload is never
// sent only for its commit to fail — and nothing is applied.
func TestStagedUpdateBoundedByCommitLimit(t *testing.T) {
	fs := openFileStore(t, t.TempDir(), FileStoreOptions{NoSync: true})
	defer fs.Close()
	// 65 blocks of 1 MiB, every one the same buffer: the test stages 64
	// MiB without holding it.
	h := docenc.Header{DocID: "big", Version: 1, BlockPlain: 1 << 20, PayloadLen: 65 << 20}
	blk := make([]byte, h.BlockStoredLen(0))
	batch := [][]byte{blk, blk, blk, blk}
	for name, s := range map[string]Store{"mem": NewMemStore(), "file": fs, "cache": NewCache(NewMemStore(), 1<<20)} {
		up := s.(DocUpdater)
		token, err := up.BeginUpdate(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		refused := -1
		for i := 0; refused < 0 && 4*i < h.NumBlocks(); i++ {
			if err := up.PutBlocks(token, 4*i, batch); err != nil {
				if !strings.Contains(err.Error(), "commit limit") {
					t.Fatalf("%s: batch %d refused with %v", name, i, err)
				}
				refused = i
			}
		}
		// 15 batches are 60 MiB and change; the 16th crosses 64 MiB.
		if refused != 15 {
			t.Fatalf("%s: the batch refused was %d, want 15", name, refused)
		}
		_ = up.AbortUpdate(token)
		if _, err := s.Header("big"); !IsUnknownDocument(err) {
			t.Fatalf("%s: the refused upload left a document behind: %v", name, err)
		}
	}
}

// TestRepublishBaseNamedByMAC: a delta names its base by version and
// header MAC. Against another header of the same version — a document
// replaced in between, a fork — every store tier refuses it with
// ErrBaseMoved, answers with the header it holds, and applies nothing.
func TestRepublishBaseNamedByMAC(t *testing.T) {
	fs := openFileStore(t, t.TempDir(), FileStoreOptions{NoSync: true})
	defer fs.Close()
	stores := map[string]Store{
		"mem": NewMemStore(), "file": fs, "cache": NewCache(NewMemStore(), 1<<20),
		"pool": dialTestPool(t, serveStore(t, NewMemStore()), 1),
	}
	for name, s := range stores {
		held := sealedContainer("doc", 1)
		if err := s.PutDocument(held); err != nil {
			t.Fatal(err)
		}
		d := nextDelta(held)
		d.BaseMAC[15] ^= 1
		h, err := s.(DeltaCommitter).CommitDelta(d)
		if !errors.Is(err, ErrBaseMoved) || !h.Equal(&held.Header) {
			t.Fatalf("%s: commit against another header of version 1 answered %+v, %v", name, h, err)
		}
		if now, err := s.Header("doc"); err != nil || !now.Equal(&held.Header) {
			t.Fatalf("%s: the refused commit left %+v, %v", name, now, err)
		}
	}
}
