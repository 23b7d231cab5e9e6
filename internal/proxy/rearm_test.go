package proxy

import (
	"errors"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/race"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// pullCase is one (document, rule profile, query) of the pull suite.
type pullCase struct {
	docID, subject string
	doc            *xmlstream.Node
	enc            docenc.EncodeOptions
	rules, query   string
}

// pullCases are the documents, profiles and queries of this package's
// end-to-end tests, each under its own document id and subject so that
// one store and one card hold them all.
func pullCases() []pullCase {
	folder := workload.MedicalFolder(workload.MedicalConfig{Seed: 5, Patients: 20, VisitsPerPatient: 5})
	small := docenc.EncodeOptions{BlockPlain: 128, MinSkipBytes: 32}
	return []pullCase{
		{"skip-heavy", "emergency", folder, small, "default -\n+ //emergency\n+ //patient/name", ""},
		{"query", "all", folder, small, "default +", "//emergency"},
		{"mostly-authorized", "nurse", folder, small, "default +\n- //ssn", ""},
		{"predicates", "asthma", folder, small, "default -\n+ //patient[visit/diagnosis = \"asthma\"]\n- //ssn", `//visit[report]`},
		{"catalog", "narrow", workload.Catalog(workload.CatalogConfig{Seed: 5, Categories: 12, ProductsPerCategory: 8}),
			docenc.EncodeOptions{MinSkipBytes: 16}, `default -` + "\n" + `+ /catalog/category[@name = "cat07"]`, ""},
		{"stream", "child", workload.MediaStream(workload.StreamConfig{Seed: 5, Segments: 30, PayloadBytes: 400}),
			docenc.EncodeOptions{BlockPlain: 64, MinSkipBytes: 24}, `default -` + "\n" + `+ //segment[@rating = "all"]`, ""},
	}
}

// pullRig publishes every case on one store and provisions one card for
// all of them.
func pullRig(t testing.TB, cases []pullCase) *rig {
	t.Helper()
	var r *rig
	for _, pc := range cases {
		rs := workload.MustParseRules("subject " + pc.subject + "\n" + pc.rules)
		if r == nil {
			r = newRig(t, pc.doc, pc.docID, card.Modern, pc.enc, rs)
			continue
		}
		key := secure.KeyFromSeed("test:" + pc.docID)
		enc := pc.enc
		enc.DocID, enc.Key = pc.docID, key
		if _, err := r.pub.PublishDocument(pc.doc, enc); err != nil {
			t.Fatal(err)
		}
		if err := r.card.PutKey(pc.docID, key); err != nil {
			t.Fatal(err)
		}
		rs.DocID = pc.docID
		if err := r.pub.GrantRules(key, rs); err != nil {
			t.Fatal(err)
		}
		if err := r.sess.InstallRules(pc.subject, pc.docID); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// sameResult compares what two queries returned and what they cost the
// card. Blocks fetched are left out: speculation depends on timing.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.XML() != want.XML() {
		t.Errorf("%s: views differ:\ngot:  %s\nwant: %s", what, got.XML(), want.XML())
	}
	if got.Stats.Meter != want.Stats.Meter {
		t.Errorf("%s: card meter differs:\ngot:  %+v\nwant: %+v", what, got.Stats.Meter, want.Stats.Meter)
	}
	if got.Stats.Session != want.Stats.Session {
		t.Errorf("%s: session statistics differ:\ngot:  %+v\nwant: %+v", what, got.Stats.Session, want.Stats.Session)
	}
	if got.Version != want.Version {
		t.Errorf("%s: version %d, want %d", what, got.Version, want.Version)
	}
}

// TestSessionReuseMatchesFreshSession: a long-lived Session — its card
// session re-armed, its collector and prepared runs recycled — answers
// each case, after queries on other documents and after a query a
// tampered block cut short, exactly as a Session built for that one
// query does, serial and pipelined.
func TestSessionReuseMatchesFreshSession(t *testing.T) {
	cases := pullCases()
	for _, prefetch := range []int{0, 3, DefaultPrefetch} {
		r := pullRig(t, cases)
		standing := NewSession(r.store, r.card, soe.Options{}, prefetch)
		for round := 0; round < 2; round++ {
			for i, pc := range cases {
				// Between the compared queries: another document, then a
				// query on this one that dies at a tampered block.
				other := cases[(i+1+round)%len(cases)]
				if _, err := standing.Query(other.subject, other.docID, other.query); err != nil {
					t.Fatalf("prefetch=%d %s: %v", prefetch, other.docID, err)
				}
				if err := r.store.Tamper(pc.docID, 0, 3); err != nil {
					t.Fatal(err)
				}
				if _, err := standing.Query(pc.subject, pc.docID, pc.query); !errors.Is(err, secure.ErrIntegrity) {
					t.Fatalf("prefetch=%d %s: tampered query: %v", prefetch, pc.docID, err)
				}
				if err := r.store.Tamper(pc.docID, 0, 3); err != nil { // flip it back
					t.Fatal(err)
				}

				got, err := standing.Query(pc.subject, pc.docID, pc.query)
				if err != nil {
					t.Fatalf("prefetch=%d %s: %v", prefetch, pc.docID, err)
				}
				want, err := NewSession(r.store, r.card, soe.Options{}, prefetch).Query(pc.subject, pc.docID, pc.query)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, pc.docID, got, want)
			}
		}
		if r.card.RAM.InUse() != 0 {
			t.Errorf("prefetch=%d: %d bytes of card RAM still charged", prefetch, r.card.RAM.InUse())
		}
	}
}

// TestCardPathAllocsFlatAcrossDocumentSize guards the fixed-memory card
// loop: a warmed Session answers a query under a predicate-bearing
// profile (tokens, pending decisions, pending groups) with a number of
// allocations that does not follow the document. What is left is per
// query — the header's bytes, the result and its view's slabs — and per
// fetched run (the in-process store's run of blocks; the larger folder
// takes two runs more), so four times the patients may cost at most 15%
// or four allocations more, whichever is larger, and the bound below is
// far under one allocation per element.
func TestCardPathAllocsFlatAcrossDocumentSize(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const bound = 20
	measure := func(patients int) float64 {
		doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 11, Patients: patients, VisitsPerPatient: 4})
		rs := workload.MustParseRules("subject asthma\ndefault -\n+ //patient[visit/diagnosis = \"asthma\"]\n- //ssn\n+ //visit[report]/date")
		r := newRig(t, doc, "folder", card.Modern, docenc.EncodeOptions{BlockPlain: 1024, MinSkipBytes: 32}, rs)
		s := NewSession(r.store, r.card, soe.Options{}, DefaultPrefetch)
		var frame []byte
		run := func() {
			res, err := s.Query("asthma", "folder", "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Session.Core.TokensCreated < patients || res.Stats.Session.Core.GroupsCreated < patients {
				t.Fatalf("profile is not predicate-bearing on this document: %+v", res.Stats.Session.Core)
			}
			if frame, err = res.AppendXML(frame[:0]); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: buffers, slabs and runs reach their size
		run()
		return testing.AllocsPerRun(20, run)
	}
	small, large := measure(30), measure(120)
	t.Logf("allocations per query: %.0f for 30 patients, %.0f for 120", small, large)
	if large > max(small*1.15, small+4) || large > bound {
		t.Errorf("allocations per query: %.0f for 30 patients, %.0f for 120; want within 15%% or 4 of each other and at most %d", small, large, bound)
	}
}
