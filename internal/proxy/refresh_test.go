package proxy

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

const refreshRules = "subject nurse\ndefault +\n- //ssn"

// revokeNurse grants the nurse a stricter rule set at the next version
// and re-publishes the document with one more element, the paper's
// combined update of content and rights; it returns the new version.
func (w *republishWorld) revokeNurse(t *testing.T, doc *xmlstream.Node, docID string) uint32 {
	t.Helper()
	strict := workload.MustParseRules("subject nurse\ndefault -\n+ //name")
	strict.DocID, strict.Version = docID, 1
	if err := w.pub.GrantRules(w.key, strict); err != nil {
		t.Fatal(err)
	}
	next := &xmlstream.Node{Name: doc.Name, Children: append(append([]*xmlstream.Node(nil), doc.Children...),
		&xmlstream.Node{Name: "amendment", Children: []*xmlstream.Node{{Text: "revised after audit"}}})}
	ri, err := w.pub.Republish(next, docenc.EncodeOptions{DocID: docID, Key: w.key, BlockPlain: 128, MinSkipBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	return ri.Version
}

// freshQuery is the oracle: the subject's full view through a new card
// and session, which share no rule state with the session under test.
func (w *republishWorld) freshQuery(t *testing.T, subject, docID string) *Result {
	t.Helper()
	fresh := card.New(card.Modern)
	if err := fresh.PutKey(docID, w.key); err != nil {
		t.Fatal(err)
	}
	fs := NewSession(w.store, fresh, soe.Options{}, 0)
	t.Cleanup(fs.Close)
	if err := fs.InstallRules(subject, docID); err != nil {
		t.Fatal(err)
	}
	res, err := fs.Query(subject, docID, "")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSessionFollowsRepublishedRules: a standing session that served
// version 1 runs its first query of a re-publication that revokes rights
// under the new rules, as a fresh session would, and charges the
// re-install to the card but not to that query's meter.
func TestSessionFollowsRepublishedRules(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 61, Patients: 6, VisitsPerPatient: 2})
	w := newRepublishWorld(t, dsp.NewMemStore(), doc, "folder", refreshRules)
	before, err := w.sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	if before.Stats.RulesRefreshed {
		t.Fatal("the first query of a session counted a refresh")
	}

	version := w.revokeNurse(t, doc, "folder")
	want := w.freshQuery(t, "nurse", "folder")
	if want.XML() == before.XML() {
		t.Fatal("the revocation does not change the nurse's view")
	}

	got, err := w.sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != version || got.XML() != want.XML() {
		t.Fatalf("the first query of version %d (served %d) runs under the revoked rules:\ngot:  %s\nwant: %s",
			version, got.Version, got.XML(), want.XML())
	}
	if !got.Stats.RulesRefreshed {
		t.Error("the query that re-installed the rules does not report it")
	}
	if got.Stats.Meter != want.Stats.Meter {
		t.Errorf("the refreshing query's meter %+v differs from a fresh session's %+v: the re-install was charged to it",
			got.Stats.Meter, want.Stats.Meter)
	}

	steady, err := w.sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	if steady.Stats.RulesRefreshed || steady.XML() != want.XML() {
		t.Errorf("a query of an unchanged version refreshed (%v) or changed the view", steady.Stats.RulesRefreshed)
	}
}

// withholdStore fails every rule-set fetch once withhold is set: a store
// that keeps a revocation from the cards it serves.
type withholdStore struct {
	*dsp.MemStore
	withhold atomic.Bool
}

func (s *withholdStore) RuleSet(docID, subject string) ([]byte, error) {
	if s.withhold.Load() {
		return nil, errors.New("rule set withheld")
	}
	return s.MemStore.RuleSet(docID, subject)
}

// TestSessionWithheldRefreshFailsClosed: when the store withholds the
// rule set that came with a re-publication, a standing session does not
// go on serving under the rules it has: the query fails, with no view.
func TestSessionWithheldRefreshFailsClosed(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 62, Patients: 6, VisitsPerPatient: 2})
	store := &withholdStore{MemStore: dsp.NewMemStore()}
	w := newRepublishWorld(t, store, doc, "folder", refreshRules)
	if _, err := w.sess.Query("nurse", "folder", ""); err != nil {
		t.Fatal(err)
	}

	store.withhold.Store(true)
	w.revokeNurse(t, doc, "folder")
	for i := 0; i < 2; i++ { // a failed refresh leaves the next query owing one too
		res, err := w.sess.Query("nurse", "folder", "")
		if err == nil {
			t.Fatalf("query %d after a withheld revocation served a view:\n%s", i, res.XML())
		}
		if res != nil {
			t.Fatalf("query %d failed (%v) but returned a result", i, err)
		}
	}
}

// landingStore runs land once, right after the first rule-set fetch
// made once it is armed: a write that falls between a session's
// InstallRules and its first query.
type landingStore struct {
	*dsp.MemStore
	armed atomic.Bool
	land  func()
}

func (s *landingStore) RuleSet(docID, subject string) ([]byte, error) {
	sealed, err := s.MemStore.RuleSet(docID, subject)
	if s.armed.Swap(false) {
		s.land()
	}
	return sealed, err
}

// TestSessionRefreshesRulesLandedAfterInstall: a revocation and
// re-publication that land between a fresh session's InstallRules and
// its first query reach that query: the version InstallRules read
// before its fetch is older than the header the query authenticates.
func TestSessionRefreshesRulesLandedAfterInstall(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 63, Patients: 6, VisitsPerPatient: 2})
	store := &landingStore{MemStore: dsp.NewMemStore()}
	w := newRepublishWorld(t, store, doc, "folder", refreshRules)
	before, err := w.sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}

	late := card.New(card.Modern)
	if err := late.PutKey("folder", w.key); err != nil {
		t.Fatal(err)
	}
	ls := NewSession(store, late, soe.Options{}, 0)
	defer ls.Close()
	var version uint32
	store.land = func() { version = w.revokeNurse(t, doc, "folder") }
	store.armed.Store(true)
	if err := ls.InstallRules("nurse", "folder"); err != nil {
		t.Fatal(err)
	}
	if version == 0 {
		t.Fatal("the revocation did not land during the install")
	}

	want := w.freshQuery(t, "nurse", "folder")
	if want.XML() == before.XML() {
		t.Fatal("the revocation does not change the nurse's view")
	}
	got, err := ls.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != version || got.XML() != want.XML() {
		t.Fatalf("the first query of version %d (served %d) after an install that predates it runs under the revoked rules:\ngot:  %s\nwant: %s",
			version, got.Version, got.XML(), want.XML())
	}
	if !got.Stats.RulesRefreshed {
		t.Error("the query that re-installed the rules does not report it")
	}
}

// TestSessionRefreshesAgainForCommitDuringRefresh: a re-publication that
// lands while a query refreshes its rules for the one before it gets one
// more refresh, and the query runs the newest version under its rules
// instead of tearing its block reads against the header it began with.
func TestSessionRefreshesAgainForCommitDuringRefresh(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 64, Patients: 6, VisitsPerPatient: 2})
	store := &landingStore{MemStore: dsp.NewMemStore()}
	w := newRepublishWorld(t, store, doc, "folder", refreshRules)
	if _, err := w.sess.Query("nurse", "folder", ""); err != nil {
		t.Fatal(err)
	}
	w.revokeNurse(t, doc, "folder")

	var version uint32
	store.land = func() {
		stricter := workload.MustParseRules("subject nurse\ndefault -\n+ //amendment")
		stricter.DocID, stricter.Version = "folder", 2
		if err := w.pub.GrantRules(w.key, stricter); err != nil {
			t.Fatal(err)
		}
		ri, err := w.pub.Republish(mutateTexts(doc, 5), docenc.EncodeOptions{DocID: "folder", Key: w.key, BlockPlain: 128, MinSkipBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		version = ri.Version
	}
	store.armed.Store(true)
	got, err := w.sess.Query("nurse", "folder", "")
	if err != nil {
		t.Fatalf("a commit during the refresh failed the query: %v", err)
	}
	if version == 0 {
		t.Fatal("the second re-publication did not land during the refresh")
	}
	want := w.freshQuery(t, "nurse", "folder")
	if got.Version != version || got.XML() != want.XML() || !got.Stats.RulesRefreshed {
		t.Fatalf("served version %d (want %d, refreshed %v) or another view:\ngot:  %s\nwant: %s",
			got.Version, version, got.Stats.RulesRefreshed, got.XML(), want.XML())
	}
}
