package proxy

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// The tests of the diff base a Publisher retains between re-publications
// of a document: whatever it retained, what it commits is what a
// Publisher that fetches and authenticates the stored version every time
// commits, and it never diffs against bytes the store could have chosen.

// probeStore is a MemStore the tests watch and sabotage.
type probeStore struct {
	*dsp.MemStore

	mu sync.Mutex
	// updates is every commit frame the store received as one line: the
	// base, the header's bytes, each run's position and digest.
	updates []string
	// frames is every commit frame the store received, as it arrived.
	frames []*docenc.DeltaUpdate
	// blockReads counts the calls that read stored blocks: a retained base
	// makes none.
	blockReads int
	// answer, when set, rewrites the header the store holds, as Header
	// answers it and as a commit checks its base against it.
	answer func(docenc.Header) docenc.Header
	// arrive, when set, runs as every commit frame arrives.
	arrive func()
	// commit, when set, replaces the commit; it is handed the real one.
	commit func(real func() error) error
	// reply, when set, rewrites the header a commit answers with.
	reply func(docenc.Header) docenc.Header
}

func (s *probeStore) note(format string, args ...any) {
	s.mu.Lock()
	s.updates = append(s.updates, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *probeStore) reads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blockReads
}

func (s *probeStore) Header(docID string) (docenc.Header, error) {
	h, err := s.MemStore.Header(docID)
	s.mu.Lock()
	answer := s.answer
	s.mu.Unlock()
	if err == nil && answer != nil {
		h = answer(h)
	}
	return h, err
}

func (s *probeStore) ReadBlock(docID string, idx int) ([]byte, error) {
	s.mu.Lock()
	s.blockReads++
	s.mu.Unlock()
	return s.MemStore.ReadBlock(docID, idx)
}

func (s *probeStore) ReadBlocks(docID string, start, count int) ([][]byte, error) {
	s.mu.Lock()
	s.blockReads++
	s.mu.Unlock()
	return s.MemStore.ReadBlocks(docID, start, count)
}

func (s *probeStore) CommitDelta(d *docenc.DeltaUpdate) (docenc.Header, error) {
	s.mu.Lock()
	arrive, answer, commit, reply := s.arrive, s.answer, s.commit, s.reply
	s.frames = append(s.frames, d)
	s.mu.Unlock()
	if arrive != nil {
		arrive()
	}
	line := fmt.Sprintf("commit base=%d/%x header=%x", d.BaseVersion, d.BaseMAC, mustMarshal(d.Header))
	for _, r := range d.Runs {
		sum := sha256.New()
		for _, b := range r.Blocks {
			sum.Write(b)
		}
		line += fmt.Sprintf(" run %d+%d %x", r.Start, len(r.Blocks), sum.Sum(nil))
	}
	s.note("%s", line)
	if answer != nil {
		if held, err := s.Header(d.Header.DocID); err == nil && (held.Version != d.BaseVersion || held.MAC != d.BaseMAC) {
			return held, fmt.Errorf("%w: probe store holds version %d", dsp.ErrBaseMoved, held.Version)
		}
	}
	var h docenc.Header
	real := func() (err error) {
		if h, err = s.MemStore.CommitDelta(d); reply != nil {
			h = reply(h)
		}
		return err
	}
	if commit != nil {
		return h, commit(real)
	}
	return h, real()
}

func mustMarshal(h docenc.Header) []byte {
	b, _ := h.MarshalBinary()
	return b
}

// image is the stored document, byte for byte: header, then blocks.
func (s *probeStore) image(t *testing.T, docID string) []byte {
	t.Helper()
	c, err := s.MemStore.Snapshot(docID)
	if err != nil {
		t.Fatal(err)
	}
	img, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// stored decodes the stored document under key.
func (s *probeStore) stored(t *testing.T, docID string, key secure.DocKey) *xmlstream.Node {
	t.Helper()
	c, err := s.MemStore.Snapshot(docID)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := docenc.DecodeDocument(c, key)
	if err != nil {
		t.Fatalf("the stored version does not decode: %v", err)
	}
	return tree.Canonicalize()
}

const retainedDoc = "folder"

var retainedKey = secure.KeyFromSeed("retained:" + retainedDoc)

func retainedOpts() docenc.EncodeOptions {
	return docenc.EncodeOptions{DocID: retainedDoc, Key: retainedKey, BlockPlain: 128, MinSkipBytes: 32}
}

// newProbeStore publishes version 0 of a folder and returns the store
// and the tree the test goes on editing.
func newProbeStore(t *testing.T) (*probeStore, *xmlstream.Node) {
	t.Helper()
	s := &probeStore{MemStore: dsp.NewMemStore()}
	tree := workload.MedicalFolder(workload.MedicalConfig{Seed: 31, Patients: 8, VisitsPerPatient: 3})
	if _, err := (&Publisher{Store: s}).PublishDocument(tree, retainedOpts()); err != nil {
		t.Fatal(err)
	}
	return s, tree
}

// editTree applies one seeded edit in place: mostly a value rewritten at
// its length (the geometry stays), now and then a value that grows, a
// subtree that goes or a subtree that is doubled (the geometry moves).
func editTree(rng *rand.Rand, root *xmlstream.Node) {
	var texts, parents []*xmlstream.Node
	var walk func(*xmlstream.Node)
	walk = func(x *xmlstream.Node) {
		elements := 0
		for _, c := range x.Children {
			if c.IsText() {
				texts = append(texts, c)
				continue
			}
			elements++
			walk(c)
		}
		if elements > 1 {
			parents = append(parents, x)
		}
	}
	walk(root)
	switch k := rng.Intn(10); {
	case k == 0:
		c := texts[rng.Intn(len(texts))]
		c.Text += strings.Repeat("+", 1+rng.Intn(300))
	case k == 1 && len(parents) > 0:
		p := parents[rng.Intn(len(parents))]
		i := rng.Intn(len(p.Children))
		p.Children = append(p.Children[:i:i], p.Children[i+1:]...)
	case k == 2 && len(parents) > 0:
		p := parents[rng.Intn(len(parents))]
		p.Children = append(p.Children, mutateTexts(p.Children[rng.Intn(len(p.Children))], 0))
	default:
		c := texts[rng.Intn(len(texts))]
		b := []byte(c.Text)
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(26))
		}
		c.Text = string(b)
	}
}

func sameRepublish(a, b *RepublishInfo) bool {
	return a.Version == b.Version && a.TotalBlocks == b.TotalBlocks && a.ChangedBlocks == b.ChangedBlocks &&
		a.ChangedRuns == b.ChangedRuns && a.BytesUploaded == b.BytesUploaded && a.Fallback == b.Fallback &&
		*a.Info == *b.Info
}

// TestRepublishRetainedMatchesFresh: 200 edits committed by one
// long-lived Publisher and, on a twin store, by a new Publisher per
// commit. Every header, every delta run and the stored bytes agree all
// the way, across edits that grow and shrink the geometry — and only the
// long-lived one stopped reading blocks back.
func TestRepublishRetainedMatchesFresh(t *testing.T) {
	kept, tree := newProbeStore(t)
	fresh, _ := newProbeStore(t)
	long := &Publisher{Store: kept}
	rng := rand.New(rand.NewSource(7))
	geometries := make(map[int]bool)
	for i := 0; i < 200; i++ {
		editTree(rng, tree)
		a, err := long.Republish(tree, retainedOpts())
		if err != nil {
			t.Fatalf("edit %d, long-lived publisher: %v", i, err)
		}
		b, err := (&Publisher{Store: fresh}).Republish(tree, retainedOpts())
		if err != nil {
			t.Fatalf("edit %d, fresh publisher: %v", i, err)
		}
		// The dictionaries are two objects with the same content.
		if !bytes.Equal(dictImage(t, a.Info), dictImage(t, b.Info)) {
			t.Fatalf("edit %d: dictionaries differ", i)
		}
		b.Info.Dict = a.Info.Dict
		if !sameRepublish(a, b) {
			t.Fatalf("edit %d: retained base reports %+v (%+v),\nfresh fetch %+v (%+v)", i, a, a.Info, b, b.Info)
		}
		if !bytes.Equal(kept.image(t, retainedDoc), fresh.image(t, retainedDoc)) {
			t.Fatalf("edit %d: the two stores hold different bytes", i)
		}
		geometries[a.TotalBlocks] = true
	}
	if strings.Join(kept.updates, "\n") != strings.Join(fresh.updates, "\n") {
		t.Fatal("the two publishers sent different commit frames")
	}
	if len(geometries) < 10 {
		t.Fatalf("the edits moved the geometry %d times: grow and shrink are not covered", len(geometries))
	}
	if !kept.stored(t, retainedDoc, retainedKey).Equal(mutateTexts(tree, 0).Canonicalize()) {
		t.Fatal("the stored version is not the last tree")
	}
	if kept.reads() != 1 || fresh.reads() != 200 {
		t.Fatalf("block reads: long-lived publisher %d (want 1, its first base), fresh publishers %d (want 200)",
			kept.reads(), fresh.reads())
	}
}

// matchesFresh re-publishes tree through pub, whose store is s, and
// through a new Publisher on a twin of s holding what s held; it fails
// unless the two commit frames — base, header, every run's blocks — are
// byte-identical, and returns pub's outcome.
func matchesFresh(t *testing.T, s *probeStore, pub *Publisher, tree *xmlstream.Node) *RepublishInfo {
	t.Helper()
	c, err := s.MemStore.Snapshot(retainedDoc)
	if err != nil {
		t.Fatal(err)
	}
	twin := &probeStore{MemStore: dsp.NewMemStore()}
	if err := twin.PutDocument(c); err != nil {
		t.Fatal(err)
	}
	frames := len(s.updates)
	ri, err := pub.Republish(tree, retainedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Publisher{Store: twin}).Republish(tree, retainedOpts()); err != nil {
		t.Fatal(err)
	}
	if len(s.updates) != frames+1 || len(twin.updates) != 1 {
		t.Fatalf("%d and %d commit frames, want one each", len(s.updates)-frames, len(twin.updates))
	}
	if s.updates[frames] != twin.updates[0] {
		t.Fatalf("the commit differs from a fresh publisher's:\n%s\n%s", s.updates[frames], twin.updates[0])
	}
	return ri
}

func dictImage(t *testing.T, info *docenc.EncodeInfo) []byte {
	t.Helper()
	img, err := info.Dict.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRepublishForeignCommitRefetches: another publisher commits between
// two re-publications. The store's header is no longer the retained one,
// so the base is fetched and authenticated again, and the outcome is the
// one a Publisher without retention produces.
func TestRepublishForeignCommitRefetches(t *testing.T) {
	kept, tree := newProbeStore(t)
	fresh, _ := newProbeStore(t)
	long, other := &Publisher{Store: kept}, &Publisher{Store: kept}
	rng := rand.New(rand.NewSource(11))
	commit := func(onKept *Publisher) {
		t.Helper()
		editTree(rng, tree)
		if _, err := onKept.Republish(tree, retainedOpts()); err != nil {
			t.Fatal(err)
		}
		if _, err := (&Publisher{Store: fresh}).Republish(tree, retainedOpts()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept.image(t, retainedDoc), fresh.image(t, retainedDoc)) {
			t.Fatal("the stores diverged")
		}
	}
	commit(long)
	commit(long)
	if kept.reads() != 1 {
		t.Fatalf("%d block reads after two commits of one publisher, want 1", kept.reads())
	}
	commit(other) // reads the base: it has none yet
	before := kept.reads()
	commit(long)
	if kept.reads() != before+1 {
		t.Fatalf("the publisher did not refetch after a foreign commit (%d block reads, were %d)", kept.reads(), before)
	}
	commit(long)
	if kept.reads() != before+1 {
		t.Fatal("the refetched base was not retained")
	}
}

// TestRepublishFailedCommitDropsBase: the store fails the commit, once
// before applying it and once after. Either way the publisher cannot
// know what the store holds, so the retained base goes; the next
// re-publication fetches, authenticates and succeeds on whatever is
// there, and it and the one after, which diffs through the kept plan,
// commit what a fresh publisher commits, byte for byte.
func TestRepublishFailedCommitDropsBase(t *testing.T) {
	for _, applied := range []bool{false, true} {
		t.Run(fmt.Sprintf("applied=%v", applied), func(t *testing.T) {
			s, tree := newProbeStore(t)
			pub := &Publisher{Store: s}
			rng := rand.New(rand.NewSource(13))
			republish := func() (*RepublishInfo, error) {
				editTree(rng, tree)
				return pub.Republish(tree, retainedOpts())
			}
			if _, err := republish(); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("injected commit failure")
			s.mu.Lock()
			s.commit = func(real func() error) error {
				if applied {
					if err := real(); err != nil {
						return err
					}
				}
				return boom
			}
			s.mu.Unlock()
			if _, err := republish(); !errors.Is(err, boom) {
				t.Fatalf("re-publication over a failing commit returned %v", err)
			}
			s.mu.Lock()
			s.commit = nil
			s.mu.Unlock()

			before := s.reads()
			editTree(rng, tree)
			ri := matchesFresh(t, s, pub, tree)
			if s.reads() != before+1 {
				t.Fatalf("the base survived a failed commit (%d block reads, were %d)", s.reads(), before)
			}
			if want := uint32(2); applied && ri.Version != want+1 || !applied && ri.Version != want {
				t.Fatalf("committed version %d with applied=%v", ri.Version, applied)
			}
			editTree(rng, tree)
			matchesFresh(t, s, pub, tree)
			if s.reads() != before+1 {
				t.Fatal("the refetched base was not retained")
			}
			if !s.stored(t, retainedDoc, retainedKey).Equal(mutateTexts(tree, 0).Canonicalize()) {
				t.Fatal("the stored version is not the last tree")
			}
		})
	}
}

// TestRepublishOtherAckDropsBase: the store acknowledges a commit but
// answers with another header than the one the publisher sealed. The
// publisher cannot know what the store holds: an integrity error, and
// the next re-publication fetches and authenticates a base again.
func TestRepublishOtherAckDropsBase(t *testing.T) {
	s, tree := newProbeStore(t)
	pub := &Publisher{Store: s}
	rng := rand.New(rand.NewSource(19))
	republish := func() (*RepublishInfo, error) {
		editTree(rng, tree)
		return pub.Republish(tree, retainedOpts())
	}
	if _, err := republish(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.reply = func(h docenc.Header) docenc.Header {
		h.MAC[0] ^= 1
		return h
	}
	s.mu.Unlock()
	if _, err := republish(); !errors.Is(err, secure.ErrIntegrity) {
		t.Fatalf("an acknowledgement under another header returned %v, want an integrity error", err)
	}
	s.mu.Lock()
	s.reply = nil
	s.mu.Unlock()
	reads := s.reads()
	if _, err := republish(); err != nil {
		t.Fatal(err)
	}
	if s.reads() != reads+1 {
		t.Fatal("the base survived an acknowledgement of another header")
	}
	if !s.stored(t, retainedDoc, retainedKey).Equal(mutateTexts(tree, 0).Canonicalize()) {
		t.Fatal("the stored version is not the last tree")
	}
}

// TestRepublishRolledBackHeaderRefused: the store holds an older header
// than the one it acknowledged to this publisher — an authentic one, MAC
// and all, since it once was current — or another header for the same
// version. The one commit frame names the retained base, so the store
// refuses it before anything is applied and answers with what it holds;
// neither is a base: an integrity error, no block read, and the retained
// base is still there when the store comes back to its senses. The
// refused diffs went through the kept plan into the base's spare buffer;
// the next re-publication and the one after, which copies from that
// one's payload, commit what a fresh publisher commits, byte for byte.
func TestRepublishRolledBackHeaderRefused(t *testing.T) {
	s, tree := newProbeStore(t)
	pub := &Publisher{Store: s}
	rng := rand.New(rand.NewSource(17))
	republish := func() (*RepublishInfo, error) {
		editTree(rng, tree)
		return pub.Republish(tree, retainedOpts())
	}
	if _, err := republish(); err != nil {
		t.Fatal(err)
	}
	older, err := s.MemStore.Header(retainedDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := republish(); err != nil {
		t.Fatal(err)
	}
	answers := map[string]func(docenc.Header) docenc.Header{
		"older version": func(docenc.Header) docenc.Header { return older },
		"same version, other header": func(h docenc.Header) docenc.Header {
			h.MAC[0] ^= 1
			return h
		},
	}
	for name, answer := range answers {
		frames, reads, image := len(s.updates), s.reads(), s.image(t, retainedDoc)
		s.mu.Lock()
		s.answer = answer
		s.mu.Unlock()
		if _, err := republish(); !errors.Is(err, secure.ErrIntegrity) {
			t.Fatalf("%s: re-publication returned %v, want an integrity error", name, err)
		}
		if len(s.updates) != frames+1 || s.reads() != reads {
			t.Fatalf("%s: the publisher sent %d commit frames and read %d times, want one frame and no read",
				name, len(s.updates)-frames, s.reads()-reads)
		}
		if !bytes.Equal(s.image(t, retainedDoc), image) {
			t.Fatalf("%s: the refused commit changed the stored document", name)
		}
	}
	s.mu.Lock()
	s.answer = nil
	s.mu.Unlock()
	reads := s.reads()
	editTree(rng, tree)
	if ri := matchesFresh(t, s, pub, tree); ri.Version != 3 {
		t.Fatalf("re-publication against the honest store again committed version %d, want 3", ri.Version)
	}
	editTree(rng, tree)
	matchesFresh(t, s, pub, tree)
	if s.reads() != reads {
		t.Fatal("the refusals cost the publisher its base")
	}
	if !s.stored(t, retainedDoc, retainedKey).Equal(mutateTexts(tree, 0).Canonicalize()) {
		t.Fatal("the stored version is not the last tree")
	}
}

// TestRepublishOtherKeyIsNotABase: a base was authenticated under one
// key; a caller holding another has authenticated nothing.
func TestRepublishOtherKeyIsNotABase(t *testing.T) {
	s, tree := newProbeStore(t)
	pub := &Publisher{Store: s}
	if _, err := pub.Republish(mutateTexts(tree, 5), retainedOpts()); err != nil {
		t.Fatal(err)
	}
	opts := retainedOpts()
	opts.Key = secure.KeyFromSeed("someone else's")
	frames := len(s.updates)
	if _, err := pub.Republish(mutateTexts(tree, 7), opts); !errors.Is(err, secure.ErrIntegrity) {
		t.Fatalf("re-publication under another key returned %v, want an integrity error", err)
	}
	if len(s.updates) != frames {
		t.Fatal("a commit was sent under a key the base was never checked with")
	}
}

// TestRepublishConcurrentSameDocument: two goroutines re-publish one
// document through one Publisher, and neither commit frame reaches the
// store before both have been diffed. One of them holds the retained
// base, the other fetches its own. The first commit wins. The second is
// refused for a base that moved — and, when it diffed the retained base,
// the store's newer header sends it to fetch and authenticate the
// winner's version and commit on top, once. Either way the versions
// committed are consecutive and the stored version is the last one's
// tree. Under -race this is also the check that the two never wrote
// into one buffer.
func TestRepublishConcurrentSameDocument(t *testing.T) {
	s, tree := newProbeStore(t)
	pub := &Publisher{Store: s}
	var arrived sync.WaitGroup
	var arrivals atomic.Int32
	s.arrive = func() {
		if arrivals.Add(1) <= 2 {
			arrived.Done()
			arrived.Wait()
		}
	}
	var version uint32
	for round := 0; round < 25; round++ {
		trees := [2]*xmlstream.Node{mutateTexts(tree, 3+round), mutateTexts(tree, 40+round)}
		var infos [2]*RepublishInfo
		var errs [2]error
		arrivals.Store(0)
		arrived.Add(2)
		var done sync.WaitGroup
		for g := range trees {
			done.Add(1)
			go func() {
				defer done.Done()
				infos[g], errs[g] = pub.Republish(trees[g], retainedOpts())
			}()
		}
		done.Wait()
		last := -1
		for g := range trees {
			switch {
			case errs[g] != nil && !errors.Is(errs[g], dsp.ErrBaseMoved):
				t.Fatalf("round %d: %v", round, errs[g])
			case errs[g] == nil && (last < 0 || infos[g].Version > infos[last].Version):
				last = g
			}
		}
		if last < 0 {
			t.Fatalf("round %d: no commit won: %v, %v", round, errs[0], errs[1])
		}
		won := uint32(1)
		if errs[0] == nil && errs[1] == nil {
			won = 2
		}
		if version += won; infos[last].Version != version {
			t.Fatalf("round %d committed up to version %d, want %d", round, infos[last].Version, version)
		}
		if !s.stored(t, retainedDoc, retainedKey).Equal(trees[last].Canonicalize()) {
			t.Fatalf("round %d: the stored version is not the last commit's tree", round)
		}
	}
}

// TestRepublishRetentionBound: three documents whose bases, two buffers
// each, do not fit the bound together. The retention evicts the one used
// longest ago, stays under its bound, and a re-publication of an evicted
// document fetches its base again and commits the right bytes.
func TestRepublishRetentionBound(t *testing.T) {
	s := &probeStore{MemStore: dsp.NewMemStore()}
	pub := &Publisher{Store: s}
	const docs = 3
	trees := make([]*xmlstream.Node, docs)
	opts := make([]docenc.EncodeOptions, docs)
	for d := range trees {
		trees[d] = workload.MediaStream(workload.StreamConfig{Seed: int64(d), Segments: 24, PayloadBytes: 64 << 10})
		id := fmt.Sprintf("stream-%d", d)
		opts[d] = docenc.EncodeOptions{DocID: id, Key: secure.KeyFromSeed(id), BlockPlain: 4096}
		if _, err := pub.PublishDocument(trees[d], opts[d]); err != nil {
			t.Fatal(err)
		}
	}
	edit := func(d, round int) {
		trees[d].Children[round%24].Find("timestamp")[0].Children[0].Text = fmt.Sprintf("%010d", round)
	}
	// Round-robin: by the time a document comes round again the other two
	// have pushed it out.
	for round := 0; round < 3; round++ {
		for d := range trees {
			edit(d, round)
			ri, err := pub.Republish(trees[d], opts[d])
			if err != nil {
				t.Fatal(err)
			}
			if ri.ChangedBlocks == 0 || ri.ChangedBlocks > 2 {
				t.Fatalf("a one-field edit re-encrypted %d blocks", ri.ChangedBlocks)
			}
			pub.mu.Lock()
			retained, n := pub.retained, len(pub.bases)
			pub.mu.Unlock()
			if retained > retainedBaseBytes || n == 0 || n == docs {
				t.Fatalf("retention holds %d bytes in %d bases, the bound is %d", retained, n, retainedBaseBytes)
			}
		}
	}
	if s.reads() != 3*docs {
		t.Fatalf("%d block reads for %d re-publications that each found their base evicted", s.reads(), 3*docs)
	}
	// The most recent document is retained: back to back it reads nothing.
	edit(docs-1, 99)
	if _, err := pub.Republish(trees[docs-1], opts[docs-1]); err != nil {
		t.Fatal(err)
	}
	if s.reads() != 3*docs {
		t.Fatal("the most recently used base was not retained")
	}
	for d := range trees {
		if !s.stored(t, opts[d].DocID, opts[d].Key).Equal(mutateTexts(trees[d], 0).Canonicalize()) {
			t.Fatalf("%s: the stored version is not the last tree", opts[d].DocID)
		}
	}
}
