package proxy

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// rig is a complete test bench: store, publisher, provisioned card and
// a serial session on it.
type rig struct {
	store *dsp.MemStore
	pub   *Publisher
	card  *card.Card
	sess  *Session
	key   secure.DocKey
}

// newRig publishes the document under docID and provisions the card for
// every rule set given (rule sets must carry DocID=docID).
func newRig(t testing.TB, doc *xmlstream.Node, docID string, profile card.Profile, encOpts docenc.EncodeOptions, rulesets ...*accessrule.RuleSet) *rig {
	t.Helper()
	r := &rig{
		store: dsp.NewMemStore(),
		key:   secure.KeyFromSeed("test:" + docID),
	}
	r.pub = &Publisher{Store: r.store}
	encOpts.DocID = docID
	encOpts.Key = r.key
	if _, err := r.pub.PublishDocument(doc, encOpts); err != nil {
		t.Fatalf("publish: %v", err)
	}
	r.card = card.New(profile)
	if err := r.card.PutKey(docID, r.key); err != nil {
		t.Fatalf("put key: %v", err)
	}
	r.sess = r.session(t, r.store, soe.Options{}, 0)
	for _, rs := range rulesets {
		rs.DocID = docID
		if err := r.pub.GrantRules(r.key, rs); err != nil {
			t.Fatalf("grant rules: %v", err)
		}
		if err := r.sess.InstallRules(rs.Subject, docID); err != nil {
			t.Fatalf("install rules: %v", err)
		}
	}
	return r
}

// session builds another session on the rig's card, closed when the
// test ends.
func (r *rig) session(t testing.TB, store dsp.Store, opts soe.Options, prefetch int) *Session {
	s := NewSession(store, r.card, opts, prefetch)
	t.Cleanup(s.Close)
	return s
}

func TestEndToEndPull(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 3, Patients: 4, VisitsPerPatient: 3})
	rs := workload.MustParseRules(`
subject nurse
default -
+ /folder
- //ssn
- //contact
- //prescription`)
	r := newRig(t, doc, "folder1", card.Modern, docenc.EncodeOptions{}, rs)

	res, err := r.sess.Query("nurse", "folder1", "")
	if err != nil {
		t.Fatal(err)
	}
	want := accessrule.ApplyTree(doc, rs)
	if !res.Tree().Equal(want) {
		t.Fatalf("end-to-end result diverges from oracle:\ngot:  %s\nwant: %s",
			render(res.Tree()), render(want))
	}
	if res.Stats.BlocksFetched == 0 || res.Stats.Session.Core.Opens == 0 {
		t.Errorf("implausible stats: %+v", res.Stats)
	}
	if strings.Contains(res.XML(), "ssn") {
		t.Error("result leaks a denied tag")
	}
}

func TestEndToEndDifferential(t *testing.T) {
	iterations := 120
	if testing.Short() {
		iterations = 25
	}
	for seed := int64(0); seed < int64(iterations); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			doc := workload.RandomDocument(workload.TreeConfig{
				Seed:      seed,
				Elements:  40 + int(seed%80),
				MaxDepth:  7,
				MaxFanout: 4,
				AttrProb:  0.25,
				TextProb:  0.7,
				Tags:      []string{"a", "b", "c", "d", "e", "f"},
			})
			rcfg := workload.RuleConfig{
				Seed:          seed + 500,
				Count:         1 + int(seed%5),
				Tags:          []string{"a", "b", "c", "d", "e", "f", "@a"},
				MaxSteps:      4,
				DescProb:      0.4,
				WildProb:      0.1,
				PredProb:      0.35,
				ValuePredProb: 0.3,
				NegProb:       0.4,
			}
			if seed%3 == 0 {
				rcfg.DefaultSign = accessrule.Permit
			}
			rs := workload.RandomRuleSet("u", rcfg)

			query := ""
			if seed%2 == 1 {
				query = workload.RandomQuery(workload.RuleConfig{
					Seed: seed + 900, Tags: rcfg.Tags, MaxSteps: 3,
					DescProb: 0.5, PredProb: 0.3,
				}).String()
			}

			// Small blocks + low skip threshold exercise skipping hard.
			r := newRig(t, doc, "doc", card.Modern,
				docenc.EncodeOptions{BlockPlain: 64, MinSkipBytes: 24}, rs)
			res, err := r.sess.Query("u", "doc", query)
			if err != nil {
				t.Fatalf("query: %v\nrules:\n%s", err, rs)
			}

			var q *xpath.Path
			if query != "" {
				q = xpath.MustParse(query)
			}
			want := accessrule.ApplyTreeQuery(doc, rs, q)
			if !res.Tree().Equal(want) {
				t.Fatalf("diverges from oracle\nrules:\n%s\nquery: %s\ngot:  %s\nwant: %s",
					rs, query, render(res.Tree()), render(want))
			}

			// The skip path must agree with the no-skip path bit for bit.
			linear := r.session(t, r.store, soe.Options{DisableSkip: true, DisableCopy: true}, 0)
			res2, err := linear.Query("u", "doc", query)
			if err != nil {
				t.Fatalf("no-skip query: %v", err)
			}
			if !res2.Tree().Equal(res.Tree()) {
				t.Fatalf("skip and no-skip paths disagree")
			}
			if res2.Stats.BlocksFetched < res.Stats.BlocksFetched {
				t.Errorf("skipping fetched MORE blocks (%d) than linear reading (%d)",
					res.Stats.BlocksFetched, res2.Stats.BlocksFetched)
			}
		})
	}
}

func TestSkipSavesTransfer(t *testing.T) {
	// Emergency profile on a large folder: the emergency record is a tiny
	// fraction of each patient, and no visit subtree can ever satisfy a
	// rule (the 'emergency' tag does not occur under 'visit'), so the
	// index must let the card jump over the bulk of the document.
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 5, Patients: 40, VisitsPerPatient: 6})
	rs := workload.MustParseRules(`
subject emergency
default -
+ //emergency
+ //patient/name`)
	r := newRig(t, doc, "folder", card.EGate, docenc.EncodeOptions{MinSkipBytes: 32}, rs)

	res, err := r.sess.Query("emergency", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree() == nil {
		t.Fatal("expected a non-empty result")
	}
	if len(res.Tree().Find("emergency")) == 0 || len(res.Tree().Find("name")) == 0 {
		t.Fatalf("result lacks granted content: %s", render(res.Tree()))
	}
	if got := len(res.Tree().Find("diagnosis")); got != 0 {
		t.Fatalf("result leaks %d diagnosis elements", got)
	}
	if res.Stats.Session.Core.SkippedSubtrees == 0 {
		t.Fatal("no subtree was skipped")
	}
	if res.Stats.BlocksFetched >= res.Stats.BlocksTotal*2/3 {
		t.Errorf("skip index ineffective: fetched %d of %d blocks",
			res.Stats.BlocksFetched, res.Stats.BlocksTotal)
	}

	// The ablation baseline must fetch everything.
	res2, err := r.session(t, r.store, soe.Options{DisableSkip: true}, 0).Query("emergency", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.BlocksFetched != res2.Stats.BlocksTotal {
		t.Errorf("no-index baseline fetched %d of %d blocks",
			res2.Stats.BlocksFetched, res2.Stats.BlocksTotal)
	}
	if !res2.Tree().Equal(res.Tree()) {
		t.Error("skip and no-skip results differ")
	}
}

func TestAttributePredicateFailFast(t *testing.T) {
	// Value predicates on attributes resolve during the attribute phase;
	// once the attribute mismatches, product subtrees inside the denied
	// category are skippable. With a low indexing threshold the card must
	// skip at least the product subtrees of mismatched categories.
	doc := workload.Catalog(workload.CatalogConfig{Seed: 5, Categories: 12, ProductsPerCategory: 8})
	rs := workload.MustParseRules(`
subject narrow
default -
+ /catalog/category[@name = "cat07"]`)
	r := newRig(t, doc, "cat", card.Modern, docenc.EncodeOptions{MinSkipBytes: 16}, rs)

	res, err := r.sess.Query("narrow", "cat", "")
	if err != nil {
		t.Fatal(err)
	}
	want := accessrule.ApplyTree(doc, rs)
	if !res.Tree().Equal(want) {
		t.Fatalf("result diverges from oracle:\ngot:  %s\nwant: %s", render(res.Tree()), render(want))
	}
	if res.Stats.Session.Core.SkippedSubtrees == 0 {
		t.Error("attribute fail-fast produced no skips")
	}
}

func TestQuerySkipIrrelevantSubtrees(t *testing.T) {
	// Pull query for one tag: subtrees that cannot contain it are
	// irrelevant and must be skipped even though they are authorized.
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 8, Patients: 30, VisitsPerPatient: 6})
	rs := workload.MustParseRules("subject all\ndefault +")
	r := newRig(t, doc, "folder", card.EGate, docenc.EncodeOptions{MinSkipBytes: 32}, rs)

	res, err := r.sess.Query("all", "folder", "//emergency")
	if err != nil {
		t.Fatal(err)
	}
	want := accessrule.ApplyTreeQuery(doc, rs, xpath.MustParse("//emergency"))
	if !res.Tree().Equal(want) {
		t.Fatalf("query result diverges from oracle")
	}
	if res.Stats.Session.Core.SkippedSubtrees == 0 {
		t.Fatal("query-irrelevant subtrees were not skipped")
	}
	if res.Stats.BlocksFetched >= res.Stats.BlocksTotal*2/3 {
		t.Errorf("query skip ineffective: fetched %d of %d blocks",
			res.Stats.BlocksFetched, res.Stats.BlocksTotal)
	}
}

func TestAblationCombinations(t *testing.T) {
	// Every combination of the two optimizations must produce the same
	// result; only costs may differ.
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 21, Patients: 8, VisitsPerPatient: 3})
	rs := workload.MustParseRules("subject u\ndefault -\n+ //patient\n- //ssn\n- //report")
	r := newRig(t, doc, "folder", card.Modern, docenc.EncodeOptions{MinSkipBytes: 32}, rs)

	combos := []soe.Options{
		{},
		{DisableSkip: true},
		{DisableCopy: true},
		{DisableSkip: true, DisableCopy: true},
	}
	var baseline *xmlstream.Node
	for i, opts := range combos {
		res, err := r.session(t, r.store, opts, 0).Query("u", "folder", "")
		if err != nil {
			t.Fatalf("combo %d: %v", i, err)
		}
		if i == 0 {
			baseline = res.Tree()
			if res.Stats.Session.Core.CopiedEvents == 0 {
				t.Error("copy-through never engaged on a mostly-authorized view")
			}
			continue
		}
		if !res.Tree().Equal(baseline) {
			t.Fatalf("combo %d produced a different result", i)
		}
	}
}

func TestIndexFreeContainer(t *testing.T) {
	// A container encoded without any index records must still evaluate
	// correctly (no skips possible, no metas to read).
	doc := workload.Agenda(workload.AgendaConfig{Seed: 22, Members: 5, EventsPerMember: 3})
	rs := workload.MustParseRules("subject u\ndefault +\n- //phone")
	r := newRig(t, doc, "agenda", card.Modern, docenc.EncodeOptions{DisableIndex: true}, rs)
	res, err := r.sess.Query("u", "agenda", "")
	if err != nil {
		t.Fatal(err)
	}
	want := accessrule.ApplyTree(doc, rs)
	if !res.Tree().Equal(want) {
		t.Fatal("index-free container diverges from oracle")
	}
	if res.Stats.Session.Core.SkippedSubtrees != 0 {
		t.Error("skips reported on an index-free container")
	}
	if res.Stats.BlocksFetched != res.Stats.BlocksTotal {
		t.Error("an index-free container must be read linearly")
	}
}

func TestIntegrityTamperDetected(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 1, Members: 4, EventsPerMember: 3})
	rs := workload.MustParseRules("subject u\ndefault +")
	r := newRig(t, doc, "agenda", card.Modern, docenc.EncodeOptions{}, rs)

	if err := r.store.Tamper("agenda", 2, 5); err != nil {
		t.Fatal(err)
	}
	_, err := r.sess.Query("u", "agenda", "")
	if !errors.Is(err, secure.ErrIntegrity) {
		t.Fatalf("tampered block must fail integrity, got %v", err)
	}
}

func TestIntegrityBlockSwapDetected(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 2, Members: 4, EventsPerMember: 3})
	rs := workload.MustParseRules("subject u\ndefault +")
	r := newRig(t, doc, "agenda", card.Modern, docenc.EncodeOptions{}, rs)

	if err := r.store.SwapBlocks("agenda", 1, 3); err != nil {
		t.Fatal(err)
	}
	_, err := r.sess.Query("u", "agenda", "")
	if !errors.Is(err, secure.ErrIntegrity) {
		t.Fatalf("swapped blocks must fail integrity, got %v", err)
	}
}

func TestRuleSetReplayRejected(t *testing.T) {
	doc := workload.Catalog(workload.CatalogConfig{Seed: 3, Categories: 2, ProductsPerCategory: 2})
	generous := workload.MustParseRules("subject u\ndefault +")
	generous.Version = 1
	r := newRig(t, doc, "cat", card.Modern, docenc.EncodeOptions{}, generous)

	// The owner revokes: a stricter version 2 replaces version 1.
	strict := workload.MustParseRules("subject u\ndefault -\n+ //name")
	strict.DocID = "cat"
	strict.Version = 2
	if err := r.pub.GrantRules(r.key, strict); err != nil {
		t.Fatal(err)
	}
	if err := r.sess.InstallRules("u", "cat"); err != nil {
		t.Fatal(err)
	}

	// A malicious DSP replays the generous version-1 blob: the card must
	// refuse the rollback.
	plain, _ := generous.MarshalBinary()
	sealed, err := secure.EncryptBlob(r.key, card.RuleBlobNamespace("cat", "u"), 0, plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.card.PutSealedRuleSet("cat", "u", sealed); err == nil {
		t.Fatal("replayed stale rule set must be rejected")
	}
}

func TestRuleSetCrossSubjectRejected(t *testing.T) {
	doc := workload.Catalog(workload.CatalogConfig{Seed: 4, Categories: 2, ProductsPerCategory: 2})
	alice := workload.MustParseRules("subject alice\ndefault +")
	r := newRig(t, doc, "cat", card.Modern, docenc.EncodeOptions{}, alice)

	sealed, err := r.store.RuleSet("cat", "alice")
	if err != nil {
		t.Fatal(err)
	}
	// The store hands alice's generous blob when bob's rights are asked:
	// unsealing under bob's namespace must fail.
	if err := r.card.PutSealedRuleSet("cat", "bob", sealed); err == nil {
		t.Fatal("cross-subject rule blob must be rejected")
	}
}

func TestEGateRAMBudgetHolds(t *testing.T) {
	// A realistic workload must fit the paper's 1 KB working memory.
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 9, Patients: 10, VisitsPerPatient: 4})
	rs := workload.MustParseRules(`
subject doctor
default -
+ //patient
- //ssn`)
	r := newRig(t, doc, "folder", card.EGate, docenc.EncodeOptions{}, rs)
	res, err := r.sess.Query("doctor", "folder", "")
	if err != nil {
		t.Fatalf("the e-gate budget should suffice: %v", err)
	}
	if res.Stats.Session.RAMPeak > card.EGate.RAMBudget {
		t.Errorf("RAM peak %d exceeds budget %d", res.Stats.Session.RAMPeak, card.EGate.RAMBudget)
	}
	if res.Stats.Session.RAMPeak == 0 {
		t.Error("RAM accounting recorded nothing")
	}
}

func TestQueryThroughCard(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 11, Patients: 5, VisitsPerPatient: 2})
	rs := workload.MustParseRules("subject u\ndefault +\n- //ssn")
	r := newRig(t, doc, "folder", card.Modern, docenc.EncodeOptions{}, rs)

	res, err := r.sess.Query("u", "folder", `//visit[diagnosis = "asthma"]`)
	if err != nil {
		t.Fatal(err)
	}
	want := accessrule.ApplyTreeQuery(doc, rs, xpath.MustParse(`//visit[diagnosis = "asthma"]`))
	if !res.Tree().Equal(want) {
		t.Fatalf("query result diverges:\ngot:  %s\nwant: %s", render(res.Tree()), render(want))
	}
}

func TestSimulatedTimeBreakdown(t *testing.T) {
	doc := workload.Catalog(workload.CatalogConfig{Seed: 6, Categories: 5, ProductsPerCategory: 8})
	rs := workload.MustParseRules("subject u\ndefault +")
	r := newRig(t, doc, "cat", card.EGate, docenc.EncodeOptions{}, rs)

	res, err := r.sess.Query("u", "cat", "")
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Stats.Time
	if tb.Transfer <= 0 || tb.Crypto <= 0 || tb.Evaluate <= 0 {
		t.Errorf("time breakdown has empty components: %+v", tb)
	}
	// On a 2 KB/s link, transfer must dominate crypto on a 33 MHz core
	// with hardware crypto — the paper's stated bottleneck.
	if tb.Transfer < tb.Crypto {
		t.Errorf("expected transfer-bound behaviour on e-gate: transfer=%v crypto=%v",
			tb.Transfer, tb.Crypto)
	}
}

// TestPipelinedMatchesSerial: the prefetching pipeline must be invisible
// to the card — same result tree, same card work, same useful blocks —
// for skip-heavy, linear and query-driven sessions alike.
func TestPipelinedMatchesSerial(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 5, Patients: 20, VisitsPerPatient: 5})
	cases := []struct {
		name  string
		rules string
		query string
		opts  soe.Options
	}{
		{"skip-heavy", "subject u\ndefault -\n+ //emergency\n+ //patient/name", "", soe.Options{}},
		{"linear", "subject u\ndefault +\n- //ssn", "", soe.Options{DisableSkip: true, DisableCopy: true}},
		{"query", "subject u\ndefault +", "//emergency", soe.Options{}},
		{"mostly-authorized", "subject u\ndefault +\n- //ssn", "", soe.Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := workload.MustParseRules(tc.rules)
			r := newRig(t, doc, "doc", card.Modern, docenc.EncodeOptions{BlockPlain: 128, MinSkipBytes: 32}, rs)
			serial, err := r.session(t, r.store, tc.opts, 0).Query("u", "doc", tc.query)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, DefaultPrefetch} {
				piped, err := r.session(t, r.store, tc.opts, k).Query("u", "doc", tc.query)
				if err != nil {
					t.Fatalf("prefetch=%d: %v", k, err)
				}
				if (piped.Tree() == nil) != (serial.Tree() == nil) ||
					(piped.Tree() != nil && !piped.Tree().Equal(serial.Tree())) {
					t.Fatalf("prefetch=%d result diverges from serial:\ngot:  %s\nwant: %s",
						k, render(piped.Tree()), render(serial.Tree()))
				}
				if piped.Stats.Meter != serial.Stats.Meter {
					t.Errorf("prefetch=%d card meter diverges:\ngot:  %+v\nwant: %+v",
						k, piped.Stats.Meter, serial.Stats.Meter)
				}
				// Useful transfer is identical; anything extra is waste.
				useful := piped.Stats.BlocksFetched - piped.Stats.BlocksWasted
				if useful != serial.Stats.BlocksFetched {
					t.Errorf("prefetch=%d useful blocks %d (fetched %d - wasted %d), serial fetched %d",
						k, useful, piped.Stats.BlocksFetched, piped.Stats.BlocksWasted,
						serial.Stats.BlocksFetched)
				}
				if piped.Stats.BlocksWasted < 0 {
					t.Errorf("negative waste: %+v", piped.Stats)
				}
			}
			// The ablated linear session promises a waste-free pipeline
			// (NeedRun's contiguity bound covers the whole remainder).
			if tc.opts.DisableSkip {
				res, err := r.session(t, r.store, tc.opts, DefaultPrefetch).Query("u", "doc", tc.query)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.BlocksWasted != 0 {
					t.Errorf("linear session wasted %d speculative blocks", res.Stats.BlocksWasted)
				}
			}
		})
	}
}

func render(n *xmlstream.Node) string {
	if n == nil {
		return "(nothing)"
	}
	s, err := xmlstream.Serialize(n.Events(), xmlstream.WriterOptions{})
	if err != nil {
		return fmt.Sprintf("(unserializable: %v)", err)
	}
	return s
}
