package soe

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// evalCase is one (document, rule profile, query) evaluation of the
// corpus: the documents, encodings, profiles and queries of the proxy
// and dissem test suites, which between them reach every mode of the
// card's event loop — skips, copy-through, pending groups, value
// predicates, streamed values, carries longer than a block.
type evalCase struct {
	name  string
	doc   *xmlstream.Node
	enc   docenc.EncodeOptions
	rules *accessrule.RuleSet
	query *xpath.Path

	container *docenc.Container
	header    []byte
}

func (ec *evalCase) key() secure.DocKey { return secure.KeyFromSeed("corpus:" + ec.name) }

// provision installs the case's key and rule set on c.
func (ec *evalCase) provision(t testing.TB, c *card.Card) {
	t.Helper()
	if err := c.PutKey(ec.name, ec.key()); err != nil {
		t.Fatal(err)
	}
	if err := c.PutRuleSet(ec.rules); err != nil {
		t.Fatal(err)
	}
}

// corpus builds and encodes the evaluation corpus. Every case is its own
// document (named after the case) under subject "u".
func corpus(t testing.TB) []*evalCase {
	t.Helper()
	rules := func(text string) *accessrule.RuleSet {
		return workload.MustParseRules("subject u\n" + text)
	}
	medical := func(seed int64, patients, visits int) *xmlstream.Node {
		return workload.MedicalFolder(workload.MedicalConfig{Seed: seed, Patients: patients, VisitsPerPatient: visits})
	}
	cases := []*evalCase{
		{name: "pull-nurse", doc: medical(3, 4, 3),
			rules: rules("default -\n+ /folder\n- //ssn\n- //contact\n- //prescription")},
		{name: "skip-emergency", doc: medical(5, 40, 6), enc: docenc.EncodeOptions{MinSkipBytes: 32},
			rules: rules("default -\n+ //emergency\n+ //patient/name")},
		{name: "attr-predicate", doc: workload.Catalog(workload.CatalogConfig{Seed: 5, Categories: 12, ProductsPerCategory: 8}),
			enc:   docenc.EncodeOptions{MinSkipBytes: 16},
			rules: rules(`default -` + "\n" + `+ /catalog/category[@name = "cat07"]`)},
		{name: "query-skip", doc: medical(8, 30, 6), enc: docenc.EncodeOptions{MinSkipBytes: 32},
			rules: rules("default +"), query: xpath.MustParse("//emergency")},
		{name: "ablation", doc: medical(21, 8, 3), enc: docenc.EncodeOptions{MinSkipBytes: 32},
			rules: rules("default -\n+ //patient\n- //ssn\n- //report")},
		{name: "index-free", doc: workload.Agenda(workload.AgendaConfig{Seed: 22, Members: 5, EventsPerMember: 3}),
			enc:   docenc.EncodeOptions{DisableIndex: true},
			rules: rules("default +\n- //phone")},
		{name: "value-query", doc: medical(11, 5, 2),
			rules: rules("default +\n- //ssn"), query: xpath.MustParse(`//visit[diagnosis = "asthma"]`)},
		{name: "folder-256", doc: medical(11, 30, 4), enc: docenc.EncodeOptions{BlockPlain: 256, MinSkipBytes: 32},
			rules: rules("default +\n- //ssn\n- //prescription")},
		{name: "folder-predicates", doc: medical(11, 30, 4), enc: docenc.EncodeOptions{BlockPlain: 256, MinSkipBytes: 32},
			rules: rules(`default -` + "\n" + `+ //patient[visit/diagnosis = "asthma"]` + "\n" + `- //ssn` + "\n" + `+ //visit[report]/date`)},
		{name: "stream-child", doc: workload.MediaStream(workload.StreamConfig{Seed: 5, Segments: 30, PayloadBytes: 400}),
			enc:   docenc.EncodeOptions{MinSkipBytes: 24},
			rules: rules(`default -` + "\n" + `+ //segment[@rating = "all"]`)},
		{name: "stream-adult-64", doc: workload.MediaStream(workload.StreamConfig{Seed: 5, Segments: 30, PayloadBytes: 400}),
			enc:   docenc.EncodeOptions{BlockPlain: 64, MinSkipBytes: 24},
			rules: rules("default +")},
		{name: "stream-standing-query", doc: workload.MediaStream(workload.StreamConfig{Seed: 6, Segments: 20, PayloadBytes: 80}),
			enc:   docenc.EncodeOptions{MinSkipBytes: 24},
			rules: rules("default +"), query: xpath.MustParse(`//segment[meta/channel = "news"]`)},
		{name: "stream-buffered-value", doc: workload.MediaStream(workload.StreamConfig{Seed: 9, Segments: 12, PayloadBytes: 150}),
			enc:   docenc.EncodeOptions{BlockPlain: 64, MinSkipBytes: 24},
			rules: rules(`default -` + "\n" + `+ //segment[payload = "never"]` + "\n" + `+ //meta`)},
		// No index record below the root, so the denied payloads cannot be
		// skipped as subtrees: their bytes are jumped value by value.
		{name: "stream-value-skip", doc: workload.MediaStream(workload.StreamConfig{Seed: 7, Segments: 12, PayloadBytes: 300}),
			enc:   docenc.EncodeOptions{BlockPlain: 128, MinSkipBytes: 1 << 20},
			rules: rules("default -\n+ //meta")},
	}
	// The random documents, rule sets and queries of the terminal's
	// end-to-end differential: small blocks and a low skip threshold.
	for seed := int64(0); seed < 24; seed++ {
		tags := []string{"a", "b", "c", "d", "e", "f"}
		rcfg := workload.RuleConfig{
			Seed: seed + 500, Count: 1 + int(seed%5), Tags: append(tags, "@a"),
			MaxSteps: 4, DescProb: 0.4, WildProb: 0.1, PredProb: 0.35, ValuePredProb: 0.3, NegProb: 0.4,
		}
		if seed%3 == 0 {
			rcfg.DefaultSign = accessrule.Permit
		}
		ec := &evalCase{
			name: fmt.Sprintf("random-%d", seed),
			doc: workload.RandomDocument(workload.TreeConfig{
				Seed: seed, Elements: 40 + int(seed%80), MaxDepth: 7, MaxFanout: 4,
				AttrProb: 0.25, TextProb: 0.7, Tags: tags,
			}),
			enc:   docenc.EncodeOptions{BlockPlain: 64, MinSkipBytes: 24},
			rules: workload.RandomRuleSet("u", rcfg),
		}
		if seed%2 == 1 {
			ec.query = workload.RandomQuery(workload.RuleConfig{
				Seed: seed + 900, Tags: rcfg.Tags, MaxSteps: 3, DescProb: 0.5, PredProb: 0.3,
			})
		}
		cases = append(cases, ec)
	}

	for _, ec := range cases {
		ec.rules.DocID = ec.name
		ec.enc.DocID, ec.enc.Key = ec.name, ec.key()
		con, _, err := docenc.Encode(ec.doc, ec.enc)
		if err != nil {
			t.Fatalf("%s: encode: %v", ec.name, err)
		}
		ec.container = con
		if ec.header, err = con.Header.MarshalBinary(); err != nil {
			t.Fatalf("%s: header: %v", ec.name, err)
		}
	}
	return cases
}

// outcome is everything one evaluation shows to the outside: the calls
// its sink received, written down as the records that stand for them
// (nil for a session bound to no callLog), the link bytes Feed reported,
// the card work it cost and the session's statistics.
type outcome struct {
	records []byte
	calls   int
	link    int   // the sum of Feed's results
	fed     []int // blocks the card asked for, in order
	meter   card.Meter
	stats   Stats
}

// loggedSession opens a session for ec on c that delivers to a callLog.
func loggedSession(t testing.TB, c *card.Card, ec *evalCase, opts Options) (*Session, *callLog) {
	t.Helper()
	sess, err := NewSession(c, ec.name, "u", ec.query, opts)
	if err != nil {
		t.Fatalf("%s: %v", ec.name, err)
	}
	log := &callLog{}
	if err := sess.DeliverTo(log); err != nil {
		t.Fatal(err)
	}
	return sess, log
}

// evaluate drives an armed session (NewSession or Restart done) through
// ec to completion, block by block from memory. log is the callLog the
// session delivers to, or nil for a session bound to none.
func evaluate(t testing.TB, c *card.Card, sess *Session, ec *evalCase, log *callLog) outcome {
	t.Helper()
	if log != nil {
		log.reset()
	}
	before := c.Meter
	if err := sess.LoadHeader(ec.header); err != nil {
		t.Fatalf("%s: header: %v", ec.name, err)
	}
	var o outcome
	for idx := sess.NeedBlock(); idx >= 0; idx = sess.NeedBlock() {
		o.fed = append(o.fed, idx)
		n, err := sess.Feed(idx, ec.container.Blocks[idx])
		if err != nil {
			t.Fatalf("%s: block %d: %v", ec.name, idx, err)
		}
		o.link += n
	}
	if !sess.Done() {
		t.Fatalf("%s: session did not finish", ec.name)
	}
	if log != nil {
		o.records, o.calls = bytes.Clone(log.log), log.calls
	}
	o.meter = c.Meter.Sub(before)
	o.stats = sess.Stats()
	if c.RAM.InUse() != 0 {
		t.Fatalf("%s: finished session left %d bytes of card RAM charged", ec.name, c.RAM.InUse())
	}
	return o
}

// evaluateFresh is the reference: a card provisioned for ec alone and a
// session built for it, delivering to a callLog of its own.
func evaluateFresh(t testing.TB, ec *evalCase, opts Options) outcome {
	t.Helper()
	c := card.New(card.Modern)
	ec.provision(t, c)
	sess, log := loggedSession(t, c, ec, opts)
	return evaluate(t, c, sess, ec, log)
}
