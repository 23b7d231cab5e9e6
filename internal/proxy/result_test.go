package proxy

import (
	"testing"

	"repro/internal/race"
	"repro/internal/soe"
)

// TestUnreleasedResultOutlivesLaterQueries: a result nobody releases
// keeps its view whatever its session does next — here 100 queries over
// every case, each released, so their storage circulates through the
// pool the kept result must not be in.
func TestUnreleasedResultOutlivesLaterQueries(t *testing.T) {
	cases := pullCases()
	r := pullRig(t, cases)
	s := r.session(t, r.store, soe.Options{}, DefaultPrefetch)
	kept, err := s.Query(cases[0].subject, cases[0].docID, cases[0].query)
	if err != nil {
		t.Fatal(err)
	}
	want := kept.XML()
	if want == "" {
		t.Fatal("the kept result is empty: nothing to overwrite")
	}
	for i := 0; i < 100; i++ {
		pc := cases[i%len(cases)]
		res, err := s.Query(pc.subject, pc.docID, pc.query)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	if got := kept.XML(); got != want {
		t.Fatalf("an unreleased result changed under 100 later queries:\n%s\nwant\n%s", got, want)
	}
}

// TestReleasedResultStorageReused: a released result's storage is what
// the session's next result is built in.
func TestReleasedResultStorageReused(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops pooled values on purpose")
	}
	cases := pullCases()
	r := pullRig(t, cases)
	s := r.session(t, r.store, soe.Options{}, DefaultPrefetch)
	pc := cases[2]
	reused := false
	for i := 0; i < 10 && !reused; i++ {
		first, err := s.Query(pc.subject, pc.docID, pc.query)
		if err != nil {
			t.Fatal(err)
		}
		want := first.XML()
		first.Release()
		next, err := s.Query(pc.subject, pc.docID, pc.query)
		if err != nil {
			t.Fatal(err)
		}
		if next.XML() != want {
			t.Fatalf("a query built in released storage answered\n%s\nwant\n%s", next.XML(), want)
		}
		reused = next == first && next.view == &next.own
		next.Release()
	}
	if !reused {
		t.Fatal("no query in 10 was built in the storage of the result released before it")
	}
}
