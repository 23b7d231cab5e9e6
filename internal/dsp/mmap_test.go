package dsp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/docenc"
	"repro/internal/secure"
)

// mmapTestContainer builds a container with deterministic block contents
// (doc id, version and block index baked into each block) so tests can
// verify bytes across checkpoints, remaps and retirements.
func mmapTestContainer(docID string, version uint32, nBlocks int) *docenc.Container {
	const plain = 512
	h := docenc.Header{DocID: docID, Version: version, BlockPlain: plain,
		PayloadLen: uint64(plain * nBlocks)}
	c := &docenc.Container{Header: h}
	for i := 0; i < nBlocks; i++ {
		b := bytes.Repeat([]byte{byte(i)}, plain+secure.MACLen)
		copy(b, docID)
		binary.BigEndian.PutUint32(b[16:], version)
		binary.BigEndian.PutUint32(b[20:], uint32(i))
		c.Blocks = append(c.Blocks, b)
	}
	return c
}

// requireMmap skips tests that assert mapped serving on builds/platforms
// without it (nommap tag, non-unix).
func requireMmap(t *testing.T) {
	t.Helper()
	if !mmapOn {
		t.Skip("mmap not supported in this build")
	}
}

// TestFileStoreMmapServesCheckpointBlocks: after a checkpoint the
// segment images are mapped, reads of checkpoint-resident blocks are
// counted against the mapped tier and return the right bytes, and a
// reopen recovers straight from the index footers (no heap load, no
// footer migration).
func TestFileStoreMmapServesCheckpointBlocks(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	want := make(map[string]*docenc.Container)
	for d := 0; d < 6; d++ {
		c := mmapTestContainer(fmt.Sprintf("mmap-doc-%d", d), 1, 8)
		want[c.Header.DocID] = c
		if err := s.PutDocument(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutRuleSet("mmap-doc-0", "alice", 2, []byte("sealed-rules")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MappedBytes != 0 {
		t.Fatalf("mapped %d bytes before any checkpoint", st.MappedBytes)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MappedBytes == 0 {
		t.Fatal("checkpoint did not install any mapping")
	}
	for id, c := range want {
		got, err := s.ReadBlocks(id, 0, len(c.Blocks))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], c.Blocks[i]) {
				t.Fatalf("%s block %d differs after checkpoint", id, i)
			}
		}
	}
	after := s.Stats()
	if after.MmapReads == 0 {
		t.Fatalf("checkpoint-resident reads not served from the mapped tier: %+v", after)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery must come straight from the footers.
	r := openFileStore(t, dir, FileStoreOptions{})
	defer r.Close()
	rst := r.Stats()
	if rst.MappedBytes == 0 {
		t.Fatal("reopen did not map the checkpoint images")
	}
	if rst.FooterMigrations != 0 {
		t.Fatalf("footered images migrated again: %d", rst.FooterMigrations)
	}
	for id, c := range want {
		got, err := r.ReadBlocks(id, 0, len(c.Blocks))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], c.Blocks[i]) {
				t.Fatalf("%s block %d differs after reopen", id, i)
			}
		}
	}
	sealed, err := r.RuleSet("mmap-doc-0", "alice")
	if err != nil || string(sealed) != "sealed-rules" {
		t.Fatalf("rules lost across mapped recovery: %q, %v", sealed, err)
	}
}

// TestFileStorePinnedViewsSurviveRetirement: views pinned before a
// checkpoint retires their region keep reading the old bytes until the
// pin releases, and the retired region unmaps exactly when the last pin
// drops.
func TestFileStorePinnedViewsSurviveRetirement(t *testing.T) {
	requireMmap(t)
	s := openFileStore(t, t.TempDir(), FileStoreOptions{})
	defer s.Close()
	v1 := mmapTestContainer("pinned", 1, 4)
	if err := s.PutDocument(v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var pins []BlockPin
	views, mapped, err := s.ReadBlocksPinned("pinned", 0, 4, &pins)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped || len(pins) != 1 {
		t.Fatalf("checkpoint-resident read not mapped (mapped=%v, %d pins)", mapped, len(pins))
	}
	oldRegion := pins[0].r
	if !oldRegion.contains(views[0]) {
		t.Fatal("pinned view does not point into the pinned region")
	}

	// Retire the region under the pin: publish v2 and checkpoint again.
	if err := s.PutDocument(mmapTestContainer("pinned", 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if refs := oldRegion.refs.Load(); refs != 1 {
		t.Fatalf("retired region holds %d refs under one pin, want 1", refs)
	}
	// The pinned views must still read the *old* version's bytes.
	for i, v := range views {
		if !bytes.Equal(v, v1.Blocks[i]) {
			t.Fatalf("pinned view %d changed under a checkpoint retirement", i)
		}
	}
	// Fresh reads serve the new version.
	got, err := s.ReadBlock("pinned", 0)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(got[16:]) != 2 {
		t.Fatal("post-retirement read did not serve the new version")
	}
	pins[0].Release()
	if refs := oldRegion.refs.Load(); refs != 0 {
		t.Fatalf("released region still holds %d refs", refs)
	}
	if oldRegion.data != nil {
		t.Fatal("region not unmapped after the last pin released")
	}
}

// checkpointedStore writes one document and one rule set into a fresh
// store in dir, checkpoints it and closes it, leaving one v3 image.
func checkpointedStore(t *testing.T, dir string, c *docenc.Container) {
	t.Helper()
	s := openFileStore(t, dir, FileStoreOptions{Shards: 1})
	if err := s.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRuleSet(c.Header.DocID, "bob", 1, []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// requireStoreHolds checks that s serves c's blocks and its rule set
// byte for byte.
func requireStoreHolds(t *testing.T, s *FileStore, c *docenc.Container) {
	t.Helper()
	got, err := s.ReadBlocks(c.Header.DocID, 0, len(c.Blocks))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], c.Blocks[i]) {
			t.Fatalf("block %d differs", i)
		}
	}
	if sealed, err := s.RuleSet(c.Header.DocID, "bob"); err != nil || string(sealed) != "sealed" {
		t.Fatalf("rules = %q, %v", sealed, err)
	}
}

// TestFileStoreRefusesOldImageMagic: an image with v1 or v2 magic fails
// the open with an error naming the format, and every file in the
// directory is left byte-identical — nothing converted or rewritten.
func TestFileStoreRefusesOldImageMagic(t *testing.T) {
	for _, version := range []byte{1, 2} {
		dir := t.TempDir()
		checkpointedStore(t, dir, mmapTestContainer("old-img", 3, 6))
		path := filepath.Join(dir, segCkptName(0))
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img[len(ckptMagic)-1] = version
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		before := snapshotDir(t, dir)
		s, err := NewFileStore(dir)
		if err == nil {
			_ = s.Close()
			t.Fatalf("opened a v%d image", version)
		}
		if want := fmt.Sprintf("format v%d", version); !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not name the v%d format: %v", version, err)
		}
		requireDirUnchanged(t, dir, before)
	}
}

// TestFileStoreCorruptFooterHeals: a v3 image with one corrupted byte in
// its footer CRC is heap-loaded from its body and rewritten once at
// open; from then on it is served mapped, blocks and rules intact, and
// the next open finds nothing to heal. Without mmap the heap loader
// never reads the footer, so there is nothing to heal.
func TestFileStoreCorruptFooterHeals(t *testing.T) {
	dir := t.TempDir()
	c := mmapTestContainer("healed", 3, 6)
	checkpointedStore(t, dir, c)
	path := filepath.Join(dir, segCkptName(0))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-ckptFooterTailLen+4] ^= 0xff // first byte of the index CRC
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseCkptIndex(img); err == nil {
		t.Fatal("corrupted footer still validates")
	}

	r := openFileStore(t, dir, FileStoreOptions{})
	wantHeals := int64(0)
	if mmapOn {
		wantHeals = 1
	}
	if st := r.Stats(); st.FooterMigrations != wantHeals || (st.MappedBytes > 0) != mmapOn {
		t.Fatalf("FooterMigrations = %d, MappedBytes = %d; want %d heals, mapped = %v",
			st.FooterMigrations, st.MappedBytes, wantHeals, mmapOn)
	}
	requireStoreHolds(t, r, c)
	if mmapOn && r.Stats().MmapReads == 0 {
		t.Fatal("healed image not served mapped")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if mmapOn {
		healed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseCkptIndex(healed); err != nil {
			t.Fatalf("rewritten image has no valid footer: %v", err)
		}
	}

	again := openFileStore(t, dir, FileStoreOptions{})
	defer again.Close()
	if n := again.Stats().FooterMigrations; n != 0 {
		t.Fatalf("healed image rewritten again: %d", n)
	}
	requireStoreHolds(t, again, c)
}

// TestFileStoreHeapTier: blocks outside any mapped image — everything on
// a platform without mmap, and on every platform what was committed
// since the last checkpoint — are served from heap with no pins, and
// the image a checkpoint writes reopens through whichever loader the
// platform has.
func TestFileStoreHeapTier(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	c := mmapTestContainer("heap", 1, 5)
	if err := s.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	requireHeapPinned := func(when string) {
		t.Helper()
		var pins []BlockPin
		got, mapped, err := s.ReadBlocksPinned("heap", 0, 5, &pins)
		if err != nil {
			t.Fatal(err)
		}
		if mapped || len(pins) != 0 {
			t.Fatalf("%s: heap-resident pinned read reported mapped (%d pins)", when, len(pins))
		}
		for i := range got {
			if !bytes.Equal(got[i], c.Blocks[i]) {
				t.Fatalf("%s: block %d differs", when, i)
			}
		}
	}
	requireHeapPinned("before a checkpoint")
	if st := s.Stats(); st.MappedBytes != 0 || st.MmapReads != 0 || st.HeapReads == 0 {
		t.Fatalf("uncheckpointed blocks not served from heap: %+v", st)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !mmapOn {
		requireHeapPinned("after a checkpoint")
		if st := s.Stats(); st.MappedBytes != 0 || st.MmapReads != 0 {
			t.Fatalf("store without mmap mapped anyway: %+v", st)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openFileStore(t, dir, FileStoreOptions{})
	defer r.Close()
	if st := r.Stats(); (st.MappedBytes > 0) != mmapOn || st.FooterMigrations != 0 {
		t.Fatalf("checkpointed image did not reopen cleanly: %+v", st)
	}
	got, err := r.ReadBlocks("heap", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], c.Blocks[i]) {
			t.Fatalf("block %d differs after reopen", i)
		}
	}
}

// TestFileStoreUnpinnedReadsStableAcrossRemap: the plain Store contract
// promises indefinitely valid blocks; bytes handed out before a burst of
// republish+checkpoint cycles must not change underneath the caller.
func TestFileStoreUnpinnedReadsStableAcrossRemap(t *testing.T) {
	requireMmap(t)
	s := openFileStore(t, t.TempDir(), FileStoreOptions{})
	defer s.Close()
	v1 := mmapTestContainer("stable", 1, 4)
	if err := s.PutDocument(v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	held, err := s.ReadBlocks("stable", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(2); v < 6; v++ {
		if err := s.PutDocument(mmapTestContainer("stable", v, 4)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range held {
		if !bytes.Equal(held[i], v1.Blocks[i]) {
			t.Fatalf("unpinned block %d mutated across remaps", i)
		}
	}
}

// TestCacheSkipsMappedFills: a pinned range read through the cache
// serves mapped views without inserting them into the LRU (an entry
// would outlive the pin), while the copying path still populates it.
func TestCacheSkipsMappedFills(t *testing.T) {
	requireMmap(t)
	s := openFileStore(t, t.TempDir(), FileStoreOptions{})
	defer s.Close()
	c := mmapTestContainer("cached", 1, 6)
	if err := s.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(s, 1<<20)
	var pins []BlockPin
	got, mapped, err := cache.ReadBlocksPinned("cached", 0, 6, &pins)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped {
		t.Fatal("pinned read through the cache lost the mapping")
	}
	for i := range got {
		if !bytes.Equal(got[i], c.Blocks[i]) {
			t.Fatalf("block %d differs through the cache", i)
		}
	}
	if st := cache.Stats(); st.Blocks != 0 {
		t.Fatalf("mapped fill inserted %d blocks into the LRU", st.Blocks)
	}
	for _, p := range pins {
		p.Release()
	}
	// The plain path rides the pinned tier too: a mapped fill is copied
	// out of the mapping once for the caller and NOT retained in the LRU
	// — the page cache re-serves those blocks for free, so the capacity
	// is kept for blocks that are expensive to refetch.
	plain1, err := cache.ReadBlocks("cached", 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain1 {
		if !bytes.Equal(plain1[i], c.Blocks[i]) {
			t.Fatalf("plain fill block %d differs", i)
		}
	}
	if st := cache.Stats(); st.Blocks != 0 {
		t.Fatalf("mapped plain fill cached %d blocks, want 0", st.Blocks)
	}
	// The caller got private copies, not mapped views: scribbling on
	// them must not reach the store.
	plain1[0][0] ^= 0xff
	plain2, err := cache.ReadBlocks("cached", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain2[0], c.Blocks[0]) {
		t.Fatal("plain fill handed out a view into shared memory")
	}
	// A heap-resident document (committed after the checkpoint, so not
	// in any mapped image) still populates the LRU as before.
	heap := mmapTestContainer("heap-doc", 1, 4)
	if err := s.PutDocument(heap); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.ReadBlocks("heap-doc", 0, 4); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Blocks != 4 {
		t.Fatalf("heap fill cached %d blocks, want 4", st.Blocks)
	}
	// And the now-resident blocks serve pinned reads as plain heap hits.
	pins = pins[:0]
	_, mapped, err = cache.ReadBlocksPinned("heap-doc", 0, 4, &pins)
	if err != nil {
		t.Fatal(err)
	}
	if mapped || len(pins) != 0 {
		t.Fatal("cache hits must not report mapped")
	}
}

// TestMadviseCounter checks that the read tier issues paging advice at
// the three advertised moments — image install after a checkpoint,
// footer-driven recovery scan, large cold pinned runs read through the
// mapping, not those sendfile serves — and that the counter stays zero
// where the platform (or the nommap build) has no madvise. Advice is
// best-effort by design, but on Linux over a real tmpdir the calls must
// succeed.
func TestMadviseCounter(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	s := openFileStore(t, dir, FileStoreOptions{})
	// 192 blocks x ~520 stored bytes ≈ 97 KiB: over the WILLNEED floor.
	c := mmapTestContainer("advised", 1, 192)
	if err := s.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	afterInstall := s.Stats().MadviseCalls
	if madviseSupported && afterInstall == 0 {
		t.Fatal("installing a mapped image issued no SEQUENTIAL advice")
	}
	if !madviseSupported && afterInstall != 0 {
		t.Fatalf("madvise unsupported but %d calls counted", afterInstall)
	}

	var pins []BlockPin
	_, mapped, err := s.ReadBlocksPinned("advised", 0, 192, &pins)
	if err != nil {
		t.Fatal(err)
	}
	afterRead := s.Stats().MadviseCalls
	if madviseSupported {
		if !mapped {
			t.Fatal("checkpointed blocks not served mapped")
		}
		if afterRead <= afterInstall {
			t.Fatal("a large cold pinned run issued no WILLNEED advice")
		}
	}
	// A run under the floor must not spend a syscall.
	if _, _, err := s.ReadBlocksPinned("advised", 0, 4, &pins); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().MadviseCalls; got != afterRead {
		t.Fatalf("a %d-block run advised anyway (%d -> %d calls)", 4, afterRead, got)
	}
	// Nor must a large run that goes out by sendfile: the kernel reads
	// the page cache itself, nothing is read through the mapping.
	if sendfileOn {
		var runs []wireRun
		if _, err := s.readRun("advised", 0, 192, &pins, &runs); err != nil {
			t.Fatal(err)
		}
		if len(runs) == 0 {
			t.Fatal("the checkpointed run was not resolved for sendfile")
		}
		if got := s.Stats().MadviseCalls; got != afterRead {
			t.Fatalf("a run served by sendfile advised anyway (%d -> %d calls)", afterRead, got)
		}
	}
	for _, p := range pins {
		p.Release()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery maps the image back and WILLNEEDs it for the footer scan.
	s2 := openFileStore(t, dir, FileStoreOptions{})
	defer s2.Close()
	if got := s2.Stats().MadviseCalls; madviseSupported && got == 0 {
		t.Fatal("recovery scan issued no WILLNEED advice")
	}
	blocks, err := s2.ReadBlocks("advised", 0, 192)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if !bytes.Equal(blocks[i], c.Blocks[i]) {
			t.Fatalf("block %d differs after advised recovery", i)
		}
	}
}
