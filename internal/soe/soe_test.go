package soe

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/tagdict"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// provision returns a card with key and rules for (doc, subject).
func provision(t *testing.T, docID, rules string) (*card.Card, secure.DocKey) {
	t.Helper()
	key := secure.KeyFromSeed("soe:" + docID)
	c := card.New(card.Modern)
	if err := c.PutKey(docID, key); err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules(rules)
	rs.DocID = docID
	if err := c.PutRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	return c, key
}

// runSession drives a full session and returns the assembled tree.
func runSession(t *testing.T, c *card.Card, container *docenc.Container, subject string, opts Options) *xmlstream.Node {
	t.Helper()
	sess, err := NewSession(c, container.Header.DocID, subject, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := newTestSink()
	if err := sess.DeliverTo(sink); err != nil {
		t.Fatal(err)
	}
	hb, _ := container.Header.MarshalBinary()
	if err := sess.LoadHeader(hb); err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		idx := sess.NeedBlock()
		if idx < 0 {
			break
		}
		if _, err := sess.Feed(idx, container.Blocks[idx]); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.Done() {
		t.Fatal("session never finished")
	}
	view, err := sink.asm.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return view.Tree()
}

// testSink adapts RecordSink onto a core.Assembler with a name table.
type testSink struct {
	names map[tagdict.Code]string
	asm   *core.Assembler
}

func newTestSink() *testSink {
	s := &testSink{names: make(map[tagdict.Code]string)}
	s.asm = core.NewAssembler(s)
	return s
}

func (s *testSink) Name(c tagdict.Code) string { return s.names[c] }
func (s *testSink) Bind(c tagdict.Code, n []byte) error {
	s.names[c] = string(n)
	return nil
}
func (s *testSink) Open(c tagdict.Code, m core.Mode, g core.GroupID) error {
	return s.asm.EmitOpen(c, m, g)
}
func (s *testSink) Value(text []byte, m core.Mode, g core.GroupID) error {
	return s.asm.EmitValue(text, m, g)
}
func (s *testSink) Close(m core.Mode, g core.GroupID) error {
	return s.asm.EmitClose(m, g)
}
func (s *testSink) Resolve(g core.GroupID, d bool) error {
	return s.asm.ResolveGroup(g, d)
}
func (s *testSink) Done() error { return nil }

func TestSessionEndToEnd(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 1, Patients: 4, VisitsPerPatient: 2})
	c, key := provision(t, "folder", "subject u\ndefault +\n- //ssn")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "folder", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	tree := runSession(t, c, container, "u", Options{})
	rs := workload.MustParseRules("subject u\ndefault +\n- //ssn")
	want := accessrule.ApplyTree(doc, rs)
	if !tree.Equal(want) {
		t.Fatal("session result diverges from oracle")
	}
	if c.RAM.InUse() != 0 {
		t.Errorf("session left %d bytes charged", c.RAM.InUse())
	}
}

func TestSessionsReclaimEEPROM(t *testing.T) {
	// Hundreds of sessions on one card must not exhaust its stable
	// storage: the session-scoped dictionary is reclaimed at end.
	doc := workload.Agenda(workload.AgendaConfig{Seed: 5, Members: 3, EventsPerMember: 2})
	c, key := provision(t, "a", "subject u\ndefault +")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "a", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	base := c.EEPROM.InUse()
	for i := 0; i < 400; i++ {
		_ = runSession(t, c, container, "u", Options{})
	}
	if got := c.EEPROM.InUse(); got != base {
		t.Fatalf("EEPROM leaked: %d -> %d after 400 sessions", base, got)
	}
}

// TestHeaderChargedPerAPDU: a header longer than one APDU's data crosses
// the link in as many APDUs as a block of its length would.
func TestHeaderChargedPerAPDU(t *testing.T) {
	docID := strings.Repeat("long-document-id/", 40)
	key := secure.KeyFromSeed("soe:" + docID)
	c := card.New(card.EGate)
	if err := c.PutKey(docID, key); err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules("subject u\ndefault +")
	rs.DocID = docID
	if err := c.PutRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	container, _, err := docenc.Encode(&xmlstream.Node{Name: "a"}, docenc.EncodeOptions{DocID: docID, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := container.Header.MarshalBinary()
	maxData := c.Profile.MaxAPDUData
	if len(hb) <= maxData {
		t.Fatalf("header of %d bytes fits one %d-byte APDU; the test needs a longer one", len(hb), maxData)
	}
	sess, err := NewSession(c, docID, "u", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Meter.APDUs
	if err := sess.LoadHeader(hb); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Meter.APDUs-before, int64((len(hb)+maxData-1)/maxData); got != want {
		t.Errorf("%d-byte header charged %d APDUs, want %d", len(hb), got, want)
	}
}

func TestSessionRequiresProvisioning(t *testing.T) {
	c := card.New(card.Modern)
	if _, err := NewSession(c, "doc", "u", nil, Options{}); err == nil {
		t.Error("session without a key must fail")
	}
	if err := c.PutKey("doc", secure.KeyFromSeed("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(c, "doc", "u", nil, Options{}); err == nil {
		t.Error("session without rules must fail")
	}
}

func TestSessionRejectsWrongHeader(t *testing.T) {
	doc := &xmlstream.Node{Name: "a"}
	c, key := provision(t, "doc1", "subject u\ndefault +")
	// A header for a different document (even with the same key) fails.
	other, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "doc2", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(c, "doc1", "u", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := other.Header.MarshalBinary()
	if err := sess.LoadHeader(hb); err == nil {
		t.Error("header for another document accepted")
	}
}

func TestSessionRejectsTamperedHeader(t *testing.T) {
	doc := &xmlstream.Node{Name: "a"}
	c, key := provision(t, "doc1", "subject u\ndefault +")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "doc1", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := NewSession(c, "doc1", "u", nil, Options{})
	hb, _ := container.Header.MarshalBinary()
	hb[len(hb)-1] ^= 1 // corrupt the MAC
	if err := sess.LoadHeader(hb); !errors.Is(err, secure.ErrIntegrity) {
		t.Errorf("tampered header: %v", err)
	}
}

func TestSessionRejectsWrongBlockOrder(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 2, Members: 3, EventsPerMember: 3})
	c, key := provision(t, "a", "subject u\ndefault +")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "a", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := NewSession(c, "a", "u", nil, Options{})
	hb, _ := container.Header.MarshalBinary()
	if err := sess.LoadHeader(hb); err != nil {
		t.Fatal(err)
	}
	want := sess.NeedBlock()
	if _, err := sess.Feed(want+1, container.Blocks[want+1]); err == nil {
		t.Error("out-of-order block accepted")
	}
}

func TestSessionTamperedBlock(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 3, Members: 3, EventsPerMember: 3})
	c, key := provision(t, "a", "subject u\ndefault +")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "a", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := NewSession(c, "a", "u", nil, Options{})
	hb, _ := container.Header.MarshalBinary()
	_ = sess.LoadHeader(hb)
	idx := sess.NeedBlock()
	bad := append([]byte(nil), container.Blocks[idx]...)
	bad[0] ^= 0xFF
	if _, err := sess.Feed(idx, bad); !errors.Is(err, secure.ErrIntegrity) {
		t.Errorf("tampered block: %v", err)
	}
	// The session must be dead afterwards.
	if sess.NeedBlock() != -1 {
		t.Error("aborted session still asks for blocks")
	}
	if c.RAM.InUse() != 0 {
		t.Errorf("aborted session left %d bytes charged", c.RAM.InUse())
	}
}

// TestLazyBindingOncePerCode: a tag's name crosses the link the first
// time its code is delivered, and never again in the same document.
func TestLazyBindingOncePerCode(t *testing.T) {
	dict, _ := tagdict.FromTags([]string{"x"})
	log := &callLog{}
	e := &recordEmitter{sink: log}
	e.reset(dict)
	_ = e.EmitOpen(0, core.ModeDeliver, 0)
	_ = e.EmitClose(core.ModeDeliver, 0)
	first, calls := e.size, log.calls
	e.size = 0
	_ = e.EmitOpen(0, core.ModeDeliver, 0)
	_ = e.EmitClose(core.ModeDeliver, 0)
	second := e.size
	if calls != 3 || log.calls != 5 {
		t.Errorf("the sink took %d calls for the first open and close, %d for both pairs; want 3 (bind, open, close) and 5", calls, log.calls)
	}
	if second >= first {
		t.Errorf("second emission (%dB) must be smaller than the first (%dB): binding must not repeat", second, first)
	}
	if len(log.log) != first+second {
		t.Errorf("%d bytes charged to the link for %d bytes of records", first+second, len(log.log))
	}
}
