package soe

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/card"
	"repro/internal/secure"
)

// sameOutcome fails the test when two evaluations of a case differ in
// anything the outside can see.
func sameOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if !bytes.Equal(got.records, want.records) {
		t.Errorf("%s: record stream differs (%d bytes, want %d)", what, len(got.records), len(want.records))
	}
	if got.meter != want.meter {
		t.Errorf("%s: card meter differs:\ngot:  %+v\nwant: %+v", what, got.meter, want.meter)
	}
	if got.stats != want.stats {
		t.Errorf("%s: session statistics differ:\ngot:  %+v\nwant: %+v", what, got.stats, want.stats)
	}
}

// standingCard provisions one card for the whole corpus: the card a
// long-lived session is re-armed on, case after case.
func standingCard(t *testing.T, cases []*evalCase) *card.Card {
	t.Helper()
	c := card.New(card.Modern)
	for _, ec := range cases {
		ec.provision(t, c)
	}
	return c
}

// optionSets are the session options the differential tests run under: a
// session keeps its options for life, so each set has its own.
var optionSets = map[string]Options{
	"default":   {},
	"no-skip":   {DisableSkip: true},
	"no-copy":   {DisableCopy: true},
	"ablated":   {DisableSkip: true, DisableCopy: true},
	"max-value": {MaxValue: 4096},
}

// TestRestartMatchesFreshSession: a session re-armed after other
// evaluations — of other documents, under other rules and queries — is
// indistinguishable from one built for the case: same records, same
// card work, same statistics, RAM peak included.
func TestRestartMatchesFreshSession(t *testing.T) {
	cases := corpus(t)
	const others = 3 // evaluations run between the ones compared
	for name, opts := range optionSets {
		t.Run(name, func(t *testing.T) {
			c := standingCard(t, cases)
			var sess *Session
			arm := func(ec *evalCase) {
				t.Helper()
				var err error
				if sess == nil {
					sess, err = NewSession(c, ec.name, "u", ec.query, opts)
				} else {
					err = sess.Restart(ec.name, "u", ec.query)
				}
				if err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
			}
			for i, ec := range cases {
				for k := 1; k <= others; k++ {
					other := cases[(i+k*7)%len(cases)]
					arm(other)
					evaluate(t, c, sess, other)
				}
				arm(ec)
				sameOutcome(t, ec.name, evaluate(t, c, sess, ec), evaluateFresh(t, ec, opts))
			}
		})
	}
}

// TestRestartAfterAbortAtEveryBlock: the evaluation before was cut off by
// a tampered block — at every block the card asks for in turn — with a
// value pending, frames open, tokens unresolved and names announced.
// None of it may show in the evaluation after, of the same case or of
// another.
func TestRestartAfterAbortAtEveryBlock(t *testing.T) {
	cases := corpus(t)
	if testing.Short() {
		cases = cases[:16]
	}
	c := standingCard(t, cases)
	fresh := make([]outcome, len(cases))
	for i, ec := range cases {
		fresh[i] = evaluateFresh(t, ec, Options{})
	}
	sess, err := NewSession(c, cases[0].name, "u", cases[0].query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, ec := range cases {
		for cut, bad := range fresh[i].fed {
			if err := sess.Restart(ec.name, "u", ec.query); err != nil {
				t.Fatal(err)
			}
			if err := sess.LoadHeader(ec.header); err != nil {
				t.Fatal(err)
			}
			for _, idx := range fresh[i].fed[:cut] {
				if _, err := sess.Feed(idx, ec.container.Blocks[idx]); err != nil {
					t.Fatalf("%s: block %d: %v", ec.name, idx, err)
				}
			}
			tampered := bytes.Clone(ec.container.Blocks[bad])
			tampered[len(tampered)/2] ^= 0x40
			if _, err := sess.Feed(bad, tampered); !errors.Is(err, secure.ErrIntegrity) {
				t.Fatalf("%s: tampered block %d: %v", ec.name, bad, err)
			}
			if c.RAM.InUse() != 0 || sess.NeedBlock() != -1 {
				t.Fatalf("%s: session aborted at block %d holds %d bytes of RAM and wants block %d",
					ec.name, bad, c.RAM.InUse(), sess.NeedBlock())
			}

			// Alternate what follows: the same case, or the next one.
			j := (i + cut%2) % len(cases)
			next := cases[j]
			if err := sess.Restart(next.name, "u", next.query); err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, next.name+" after "+ec.name+" aborted", evaluate(t, c, sess, next), fresh[j])
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}
