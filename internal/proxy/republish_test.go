package proxy

import (
	"net"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// republishWorld is one publish/provision/query fixture.
type republishWorld struct {
	store dsp.Store
	pub   *Publisher
	key   secure.DocKey
	card  *card.Card
	sess  *Session
}

func newRepublishWorld(t *testing.T, store dsp.Store, doc *xmlstream.Node, docID, rules string) *republishWorld {
	t.Helper()
	w := &republishWorld{
		store: store,
		pub:   &Publisher{Store: store},
		key:   secure.KeyFromSeed("republish:" + docID),
	}
	if _, err := w.pub.PublishDocument(doc, docenc.EncodeOptions{
		DocID: docID, Key: w.key, BlockPlain: 128, MinSkipBytes: 32,
	}); err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules(rules)
	rs.DocID = docID
	if err := w.pub.GrantRules(w.key, rs); err != nil {
		t.Fatal(err)
	}
	w.card = card.New(card.Modern)
	if err := w.card.PutKey(docID, w.key); err != nil {
		t.Fatal(err)
	}
	w.sess = NewSession(store, w.card, soe.Options{}, 0)
	t.Cleanup(w.sess.Close)
	if err := w.sess.InstallRules(rs.Subject, docID); err != nil {
		t.Fatal(err)
	}
	return w
}

func mutateTexts(root *xmlstream.Node, every int) *xmlstream.Node {
	cp := &xmlstream.Node{Name: root.Name, Text: root.Text}
	for _, c := range root.Children {
		cp.Children = append(cp.Children, mutateTexts(c, 0))
	}
	if every > 0 {
		n := 0
		var walk func(*xmlstream.Node)
		walk = func(x *xmlstream.Node) {
			for _, c := range x.Children {
				if c.IsText() {
					if n++; n%every == 0 && len(c.Text) > 0 {
						b := []byte(c.Text)
						for i := range b {
							b[i] = 'a' + (b[i]+11)%26
						}
						c.Text = string(b)
					}
					continue
				}
				walk(c)
			}
		}
		walk(cp)
	}
	return cp
}

// TestRepublishDeltaEqualsFull is the differential acceptance check: a
// terminal reading version N+1 after a delta re-publish must produce
// byte-identical output to one reading a full re-publication of the same
// tree at the same version.
func TestRepublishDeltaEqualsFull(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 55, Patients: 10, VisitsPerPatient: 3})
	mutated := mutateTexts(doc, 12)
	const rules = "subject nurse\ndefault +\n- //ssn\n- //report"

	// World A: publish v0, delta re-publish the mutation.
	a := newRepublishWorld(t, dsp.NewMemStore(), doc, "folder", rules)
	before, err := a.sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	ri, err := a.pub.Republish(mutated, docenc.EncodeOptions{DocID: "folder", Key: a.key})
	if err != nil {
		t.Fatal(err)
	}
	if ri.Fallback {
		t.Fatal("MemStore took the whole-container fallback")
	}
	if ri.ChangedBlocks == 0 || ri.ChangedBlocks >= ri.TotalBlocks {
		t.Fatalf("degenerate delta: %d/%d blocks", ri.ChangedBlocks, ri.TotalBlocks)
	}
	afterDelta, err := a.sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	if afterDelta.Version != ri.Version || afterDelta.Version != before.Version+1 {
		t.Fatalf("served version %d after republish to %d (was %d)",
			afterDelta.Version, ri.Version, before.Version)
	}

	// World B: full publication of the same tree at the same version.
	b := newRepublishWorld(t, dsp.NewMemStore(), doc, "folder", rules)
	if _, err := b.pub.PublishDocument(mutated, docenc.EncodeOptions{
		DocID: "folder", Key: b.key, BlockPlain: 128, MinSkipBytes: 32, Version: ri.Version,
	}); err != nil {
		t.Fatal(err)
	}
	afterFull, err := b.sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}

	if afterDelta.XML() != afterFull.XML() {
		t.Fatal("delta re-publish and full re-publish yield different terminal output")
	}
	if afterDelta.XML() == before.XML() {
		t.Fatal("mutation was invisible to the terminal (vacuous differential)")
	}
}

// TestRepublishFallbackStore: a store without the handshake still ends
// up at the right version via the whole-container fallback — also the
// second time, when the publisher diffs against the base it retained and
// has to read the stored blocks only to send them back.
func TestRepublishFallbackStore(t *testing.T) {
	type bare struct{ dsp.Store }
	inner := dsp.NewMemStore()
	cfg := workload.AgendaConfig{Seed: 9, Members: 5, EventsPerMember: 3}
	w := newRepublishWorld(t, bare{inner}, workload.Agenda(cfg), "agenda", "subject m\ndefault +")
	for i, every := range []int{6, 4} {
		mutated := mutateTexts(workload.Agenda(cfg), every)
		ri, err := w.pub.Republish(mutated, docenc.EncodeOptions{DocID: "agenda", Key: w.key})
		if err != nil {
			t.Fatal(err)
		}
		if !ri.Fallback {
			t.Fatal("bare store did not fall back")
		}
		res, err := w.sess.Query("m", "agenda", "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != ri.Version || ri.Version != uint32(i+1) {
			t.Fatalf("fallback %d left version %d, want %d", i, res.Version, ri.Version)
		}
		if !res.Tree().Equal(mutated.Canonicalize()) {
			t.Fatalf("fallback %d: the view is not the re-published document", i)
		}
		// The acknowledged whole-container commit advanced the base too, so
		// the second pass diffs against it.
		if b := w.pub.checkout("agenda"); b == nil || b.header.Version != ri.Version {
			t.Fatalf("fallback %d retained %+v", i, b)
		} else {
			w.pub.retain(b)
		}
	}
}

// TestCacheFollowsOutOfBandRepublish: a block cache in front of a remote
// store — gatewayd's default — sees nothing of a re-publication another
// client commits on a connection of its own. It must notice the header
// moved and drop the superseded ciphertext, or every later query of the
// document fails its integrity check for as long as the blocks stay
// resident.
func TestCacheFollowsOutOfBandRepublish(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := dsp.NewServer(dsp.NewMemStore())
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	dial := func() *dsp.Pool {
		pool, err := dsp.DialPool(l.Addr().String(), 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = pool.Close() })
		return pool
	}
	poolA, poolB := dial(), dial()

	cfg := workload.AgendaConfig{Seed: 9, Members: 5, EventsPerMember: 3}
	w := newRepublishWorld(t, poolA, workload.Agenda(cfg), "agenda", "subject m\ndefault +")
	cache := dsp.NewCache(poolB, 1<<20)
	reader := NewSession(cache, w.card, soe.Options{}, DefaultPrefetch)
	defer reader.Close()
	before, err := reader.Query("m", "agenda", "")
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Blocks == 0 {
		t.Fatal("the query did not warm the cache")
	}

	mutated := mutateTexts(workload.Agenda(cfg), 6)
	ri, err := w.pub.Republish(mutated, docenc.EncodeOptions{DocID: "agenda", Key: w.key})
	if err != nil {
		t.Fatal(err)
	}
	after, err := reader.Query("m", "agenda", "")
	if err != nil {
		t.Fatalf("query through the cache after an out-of-band re-publish: %v", err)
	}
	if after.Version != ri.Version || after.Version == before.Version {
		t.Fatalf("served version %d, want %d (was %d)", after.Version, ri.Version, before.Version)
	}
	if !after.Tree().Equal(mutated.Canonicalize()) {
		t.Fatal("the view is not the re-published document")
	}
}

// TestPublishStreamMatchesBuffered: the io-driven publish produces a
// stored document indistinguishable (to a terminal) from the buffered
// one, and negotiates the version on re-publication.
func TestPublishStreamMatchesBuffered(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 21, Patients: 6, VisitsPerPatient: 2})
	const rules = "subject doc\ndefault +\n- //ssn"

	buffered := newRepublishWorld(t, dsp.NewMemStore(), doc, "d", rules)
	want, err := buffered.sess.Query("doc", "d", "")
	if err != nil {
		t.Fatal(err)
	}

	store := dsp.NewMemStore()
	key := secure.KeyFromSeed("republish:d")
	pub := &Publisher{Store: store}
	if _, err := pub.PublishStream(doc, docenc.EncodeOptions{
		DocID: "d", Key: key, BlockPlain: 128, MinSkipBytes: 32,
	}); err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules(rules)
	rs.DocID = "d"
	if err := pub.GrantRules(key, rs); err != nil {
		t.Fatal(err)
	}
	c := card.New(card.Modern)
	if err := c.PutKey("d", key); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, c, soe.Options{}, 0)
	defer sess.Close()
	if err := sess.InstallRules("doc", "d"); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Query("doc", "d", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.XML() != want.XML() {
		t.Fatal("streamed publish serves different content than buffered publish")
	}

	// Re-publication through the stream path auto-bumps the version.
	if _, err := pub.PublishStream(mutateTexts(doc, 9), docenc.EncodeOptions{
		DocID: "d", Key: key, BlockPlain: 128, MinSkipBytes: 32,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query("doc", "d", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != got.Version+1 {
		t.Fatalf("streamed re-publish served version %d, want %d", res.Version, got.Version+1)
	}
}

// TestRepublishFallbackBehindCacheChecksBase: a block cache in front of
// a store without the one-frame commit answers that it cannot take one.
// The whole-container fallback must still go only over the base the
// publisher diffed: after a foreign commit, the retained base is not
// pushed back over it.
func TestRepublishFallbackBehindCacheChecksBase(t *testing.T) {
	type bare struct{ dsp.Store }
	inner := dsp.NewMemStore()
	cfg := workload.AgendaConfig{Seed: 9, Members: 5, EventsPerMember: 3}
	w := newRepublishWorld(t, dsp.NewCache(bare{inner}, 1<<20), workload.Agenda(cfg), "agenda", "subject m\ndefault +")
	opts := docenc.EncodeOptions{DocID: "agenda", Key: w.key}
	if _, err := w.pub.Republish(mutateTexts(workload.Agenda(cfg), 6), opts); err != nil {
		t.Fatal(err)
	}
	foreign := mutateTexts(workload.Agenda(cfg), 5)
	if _, err := (&Publisher{Store: w.store}).Republish(foreign, opts); err != nil {
		t.Fatal(err)
	}
	mine := mutateTexts(workload.Agenda(cfg), 4)
	ri, err := w.pub.Republish(mine, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ri.Fallback || ri.Version != 3 {
		t.Fatalf("re-publication after a foreign commit: %+v", ri)
	}
	res, err := w.sess.Query("m", "agenda", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 3 || !res.Tree().Equal(mine.Canonicalize()) {
		t.Fatalf("the store serves version %d, not the re-publication on top of the foreign commit", res.Version)
	}
}
