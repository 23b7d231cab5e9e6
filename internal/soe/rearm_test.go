package soe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/race"
	"repro/internal/secure"
	"repro/internal/tagdict"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// sameOutcome fails the test when two evaluations of a case differ in
// anything the outside can see, or when either was charged on the link
// other than what Feed reported and its sink's calls take as records.
func sameOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if !bytes.Equal(got.records, want.records) {
		t.Errorf("%s: the sink saw other calls (%d bytes as records, want %d)", what, len(got.records), len(want.records))
	}
	for _, o := range []outcome{got, want} {
		if int64(o.link) != o.meter.BytesFromCard || o.records != nil && len(o.records) != o.link {
			t.Errorf("%s: %d bytes of records, Feed reported %d, %d charged to the link", what, len(o.records), o.link, o.meter.BytesFromCard)
		}
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
// indistinguishable from one built for the case: same sink calls, same
// card work, same statistics, RAM peak included.
func TestRestartMatchesFreshSession(t *testing.T) {
	cases := corpus(t)
	const others = 3 // evaluations run between the ones compared
	for name, opts := range optionSets {
		t.Run(name, func(t *testing.T) {
			c := standingCard(t, cases)
			var sess *Session
			var sink *callLog
			arm := func(ec *evalCase) {
				t.Helper()
				if sess == nil {
					sess, sink = loggedSession(t, c, ec, opts)
				} else if err := sess.Restart(ec.name, "u", ec.query); err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
			}
			for i, ec := range cases {
				for k := 1; k <= others; k++ {
					other := cases[(i+k*7)%len(cases)]
					arm(other)
					evaluate(t, c, sess, other, sink)
				}
				arm(ec)
				sameOutcome(t, ec.name, evaluate(t, c, sess, ec, sink), evaluateFresh(t, ec, opts))
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
	sess, sink := loggedSession(t, c, cases[0], Options{})
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
			sameOutcome(t, next.name+" after "+ec.name+" aborted", evaluate(t, c, sess, next, sink), fresh[j])
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// shelfDoc is a catalogue whose tag names are long enough that its
// dictionary spans several 64-byte blocks. Version 2 reorders the tags
// (publication-year becomes the most frequent), renames volume-author to
// volume-writer and drops isbn-number and page-count.
func shelfDoc(t *testing.T, version int) *xmlstream.Node {
	t.Helper()
	var b strings.Builder
	b.WriteString("<bibliographic-collection>")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, `<catalogue-shelf shelf-label="s%d">`, i)
		for j := 0; j < 2+i; j++ {
			fmt.Fprintf(&b, "<bound-volume><volume-title>T%d.%d</volume-title>", i, j)
			if version == 1 {
				fmt.Fprintf(&b, "<volume-author>A%d</volume-author><isbn-number>%d</isbn-number><page-count>%d</page-count>", j%3, 1000+i*10+j, 100+j)
			} else {
				fmt.Fprintf(&b, "<volume-writer>A%d</volume-writer><publication-year>%d</publication-year><publication-year>%d</publication-year><publication-year>%d</publication-year>", j%3, 1990+j, 2000+i, 2010+j)
			}
			b.WriteString("</bound-volume>")
		}
		b.WriteString("</catalogue-shelf>")
	}
	b.WriteString("</bibliographic-collection>")
	evs, err := xmlstream.Parse([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlstream.BuildTree(evs)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRestartAcrossDictionaries: a session re-armed on a version of a
// document whose dictionary reorders, renames and drops the tags of the
// version before — after completing that version, or after its
// evaluation was cut off half way through the dictionary by a tampered
// block — delivers the sink calls, the view, the card work and the
// statistics of a fresh session. Nothing of the dictionary, the
// automata compiled against it or the view built from it leaks across.
func TestRestartAcrossDictionaries(t *testing.T) {
	rules := workload.MustParseRules("subject u\ndefault -\n" +
		`+ //bound-volume[volume-author = "A1"]` + "\n" +
		`+ //bound-volume[volume-writer = "A2"]/volume-title` + "\n" +
		"+ //catalogue-shelf/@shelf-label\n- //isbn-number\n+ //publication-year")
	rules.DocID = "shelves"
	key := secure.KeyFromSeed("shelves")
	versions := make([]*evalCase, 2)
	for v := range versions {
		ec := &evalCase{name: "shelves", rules: rules}
		con, _, err := docenc.Encode(shelfDoc(t, v+1), docenc.EncodeOptions{
			DocID: "shelves", Key: key, Version: uint32(v + 1), BlockPlain: 64, MinSkipBytes: 24})
		if err != nil {
			t.Fatal(err)
		}
		ec.container = con
		if ec.header, err = con.Header.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		versions[v] = ec
	}
	payload, err := versions[0].container.DecryptPayload(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, n, err := tagdict.UnmarshalBinary(payload); err != nil || n <= 64 {
		t.Fatalf("the first version's dictionary takes %d bytes (%v); the test needs it past the first block", n, err)
	}
	provisioned := func() *card.Card {
		c := card.New(card.Modern)
		if err := c.PutKey("shelves", key); err != nil {
			t.Fatal(err)
		}
		if err := c.PutRuleSet(rules); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// viewed evaluates ec on sess, which delivers to log, and assembles
	// the view from the same calls.
	viewed := func(c *card.Card, sess *Session, log *callLog, ec *evalCase) (outcome, *xmlstream.Node) {
		view := newTestSink()
		log.tee = view
		o := evaluate(t, c, sess, ec, log)
		v, err := view.asm.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return o, v.Tree()
	}
	for from, to := range []int{1, 0} {
		before, after := versions[from], versions[to]
		c := provisioned()
		freshSess, freshLog := loggedSession(t, c, after, Options{})
		fresh, freshView := viewed(c, freshSess, freshLog, after)
		if freshView == nil {
			t.Fatalf("version %d delivers nothing under the rules", to+1)
		}

		completed, aborted := provisioned(), provisioned()
		sessions := map[string]*Session{}
		logs := map[string]*callLog{}
		for what, c := range map[string]*card.Card{"completed": completed, "aborted": aborted} {
			sessions[what], logs[what] = loggedSession(t, c, before, Options{})
		}
		evaluate(t, completed, sessions["completed"], before, logs["completed"])

		sess := sessions["aborted"]
		if err := sess.LoadHeader(before.header); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Feed(0, before.container.Blocks[0]); err != nil {
			t.Fatal(err)
		}
		if sess.phase != phaseDict {
			t.Fatalf("the dictionary was complete after one block (phase %d)", sess.phase)
		}
		tampered := bytes.Clone(before.container.Blocks[1])
		tampered[3] ^= 0x10
		if _, err := sess.Feed(1, tampered); !errors.Is(err, secure.ErrIntegrity) {
			t.Fatalf("tampered dictionary block: %v", err)
		}

		for what, sess := range sessions {
			c := map[string]*card.Card{"completed": completed, "aborted": aborted}[what]
			if err := sess.Restart("shelves", "u", nil); err != nil {
				t.Fatal(err)
			}
			got, gotView := viewed(c, sess, logs[what], after)
			name := fmt.Sprintf("version %d after version %d %s", to+1, from+1, what)
			sameOutcome(t, name, got, fresh)
			if !gotView.Equal(freshView) {
				t.Errorf("%s: view differs", name)
			}
		}
	}
}

// TestMalformedDictionaryFailsAtOnce: a dictionary fault that no further
// payload could cure — an empty tag name, more tags than a dictionary may
// hold — aborts the evaluation on the block that revealed it, with the
// card's memory released; only a dictionary cut short waits for the next
// block.
func TestMalformedDictionaryFailsAtOnce(t *testing.T) {
	filler := bytes.Repeat([]byte{'x'}, 8*64)
	for _, tc := range []struct {
		name string
		dict []byte
	}{
		{"empty tag name", []byte{2, 1, 'a', 0}},
		{"over MaxTags", binary.AppendUvarint(nil, tagdict.MaxTags+1)},
		{"malformed count", bytes.Repeat([]byte{0xFF}, 11)},
	} {
		c, key := provision(t, "bad-dict", "subject u\ndefault +")
		con, err := docenc.Seal(append(bytes.Clone(tc.dict), filler...),
			docenc.EncodeOptions{DocID: "bad-dict", Key: key, BlockPlain: 64})
		if err != nil {
			t.Fatal(err)
		}
		hb, _ := con.Header.MarshalBinary()
		eeprom := c.EEPROM.InUse()
		sess, err := NewSession(c, "bad-dict", "u", nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.LoadHeader(hb); err != nil {
			t.Fatal(err)
		}
		_, err = sess.Feed(0, con.Blocks[0])
		if err == nil || !strings.Contains(err.Error(), "dictionary") {
			t.Fatalf("%s: the first block gave %v, want a dictionary error", tc.name, err)
		}
		if errors.Is(err, tagdict.ErrTruncated) {
			t.Errorf("%s: reported as a truncated dictionary: %v", tc.name, err)
		}
		if sess.NeedBlock() != -1 || c.RAM.InUse() != 0 || c.EEPROM.InUse() != eeprom {
			t.Errorf("%s: after the abort the session wants block %d and holds %d bytes of RAM, %d of EEPROM (%d before)",
				tc.name, sess.NeedBlock(), c.RAM.InUse(), c.EEPROM.InUse(), eeprom)
		}
	}

	// A dictionary cut short at the block's end is waited for.
	c, key := provision(t, "long-dict", "subject u\ndefault +")
	con, _, err := docenc.Encode(shelfDoc(t, 1), docenc.EncodeOptions{DocID: "long-dict", Key: key, BlockPlain: 64})
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := con.Header.MarshalBinary()
	sess, err := NewSession(c, "long-dict", "u", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LoadHeader(hb); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feed(0, con.Blocks[0]); err != nil || sess.NeedBlock() != 1 {
		t.Fatalf("a dictionary cut short: %v, then the card wants block %d", err, sess.NeedBlock())
	}
	sess.Abort()
}

// TestRestartAllocs gates the re-armed evaluation: a session's second
// evaluation of a container, delivered to a sink, checks the header,
// decodes the dictionary, compiles the rules and runs the document in the
// memory the first one grew. The one allocation left is the header's
// document id; the bound is that count plus 15%, where building the
// dictionary, the automata and the header check afresh took 88.
func TestRestartAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const bound = 1
	var ec *evalCase
	for _, e := range corpus(t) {
		if e.name == "folder-predicates" {
			ec = e
		}
	}
	c := card.New(card.Modern)
	ec.provision(t, c)
	sess, err := NewSession(c, ec.name, "u", ec.query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &callLog{}
	if err := sess.DeliverTo(sink); err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := sess.Restart(ec.name, "u", ec.query); err != nil {
			t.Fatal(err)
		}
		sink.reset()
		if err := sess.LoadHeader(ec.header); err != nil {
			t.Fatal(err)
		}
		for idx := sess.NeedBlock(); idx >= 0; idx = sess.NeedBlock() {
			if _, err := sess.Feed(idx, ec.container.Blocks[idx]); err != nil {
				t.Fatal(err)
			}
		}
		if !sess.Done() {
			t.Fatal("evaluation did not finish")
		}
	}
	run() // the first evaluation grows what the second re-arms
	n := testing.AllocsPerRun(20, run)
	t.Logf("allocations per re-armed evaluation: %.0f", n)
	if n > bound {
		t.Errorf("a re-armed evaluation allocated %.0f times; want at most %d", n, bound)
	}
}
