package apdu

import (
	"bytes"
	"testing"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/secure"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

func TestCommandFraming(t *testing.T) {
	c := Command{CLA: 0x80, INS: 0x24, P1: 1, P2: 0, Data: []byte{1, 2, 3}}
	raw, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCommand(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.CLA != c.CLA || back.INS != c.INS || back.P1 != c.P1 || !bytes.Equal(back.Data, c.Data) {
		t.Fatalf("round trip changed command: %+v", back)
	}

	// Header-only command.
	raw2, _ := Command{CLA: 0x80, INS: INSGetNeed}.Marshal()
	if len(raw2) != 4 {
		t.Errorf("header-only command must be 4 bytes, got %d", len(raw2))
	}

	// Oversized data.
	if _, err := (Command{Data: make([]byte, 256)}).Marshal(); err == nil {
		t.Error("oversized command accepted")
	}
	// Truncated frames.
	if _, err := UnmarshalCommand([]byte{1, 2}); err == nil {
		t.Error("short frame accepted")
	}
	if _, err := UnmarshalCommand([]byte{1, 2, 3, 4, 9, 1}); err == nil {
		t.Error("Lc mismatch accepted")
	}
}

func TestResponseFraming(t *testing.T) {
	r := Response{Data: []byte("out"), SW: SWOK}
	back, err := UnmarshalResponse(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.SW != SWOK || !bytes.Equal(back.Data, []byte("out")) {
		t.Fatalf("round trip changed response: %+v", back)
	}
	if !back.OK() {
		t.Error("SWOK must be OK")
	}
	if (Response{SW: SWSecurity}).OK() {
		t.Error("SWSecurity must not be OK")
	}
	if !(Response{SW: SWBytesRemain | 0x12}).OK() {
		t.Error("SWBytesRemain must be OK")
	}
	if _, err := UnmarshalResponse([]byte{1}); err == nil {
		t.Error("frame without SW accepted")
	}
}

// newAppletRig publishes a document and returns an APDU terminal wired to
// a fresh applet.
func newAppletRig(t testing.TB, doc *xmlstream.Node, docID, rules string) (*Terminal, *card.Card, secure.DocKey) {
	t.Helper()
	key := secure.KeyFromSeed("apdu:" + docID)
	store := dsp.NewMemStore()
	pub := &proxy.Publisher{Store: store}
	if _, err := pub.PublishDocument(doc, docenc.EncodeOptions{DocID: docID, Key: key}); err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules(rules)
	rs.DocID = docID
	if err := pub.GrantRules(key, rs); err != nil {
		t.Fatal(err)
	}
	c := card.New(card.Modern)
	term := &Terminal{Store: store, Channel: NewApplet(c)}
	return term, c, key
}

func TestAppletFullQuery(t *testing.T) {
	doc := workload.MedicalFolder(workload.MedicalConfig{Seed: 2, Patients: 4, VisitsPerPatient: 2})
	rules := "subject nurse\ndefault +\n- //ssn\n- //contact"
	term, _, key := newAppletRig(t, doc, "folder", rules)

	if err := term.ProvisionKey("folder", key.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := term.InstallRules("nurse", "folder"); err != nil {
		t.Fatal(err)
	}
	tree, err := term.Query("nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules(rules)
	want := accessrule.ApplyTree(doc, rs)
	if !tree.Equal(want) {
		t.Fatal("APDU query diverges from oracle")
	}
}

func TestAppletQueryWithXPath(t *testing.T) {
	doc := workload.Catalog(workload.CatalogConfig{Seed: 2, Categories: 3, ProductsPerCategory: 3})
	term, _, key := newAppletRig(t, doc, "cat", "subject u\ndefault +")
	_ = term.ProvisionKey("cat", key.Marshal())
	_ = term.InstallRules("u", "cat")
	tree, err := term.Query("u", "cat", "//product/name")
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil || len(tree.Find("name")) == 0 {
		t.Fatal("query delivered nothing")
	}
	if len(tree.Find("price")) != 0 {
		t.Error("query leaked non-matching content")
	}
}

func TestAppletStatusWords(t *testing.T) {
	c := card.New(card.Modern)
	app := NewApplet(c)

	if resp := app.Process(Command{CLA: 0x00, INS: INSBegin}); resp.SW != SWUnknownINS {
		t.Errorf("wrong CLA: SW %04X", resp.SW)
	}
	if resp := app.Process(Command{CLA: AppletCLA, INS: 0xEE}); resp.SW != SWUnknownINS {
		t.Errorf("unknown INS: SW %04X", resp.SW)
	}
	if resp := app.Process(Command{CLA: AppletCLA, INS: INSPutKey, Data: []byte{1}}); resp.SW != SWWrongData {
		t.Errorf("malformed PUT_KEY: SW %04X", resp.SW)
	}
	// Session commands without a session.
	for _, ins := range []byte{INSHeader, INSData, INSGetNeed} {
		if resp := app.Process(Command{CLA: AppletCLA, INS: ins, P1: 1}); resp.SW != SWConditions {
			t.Errorf("INS %02X without session: SW %04X", ins, resp.SW)
		}
	}
	// Begin for an unprovisioned document.
	begin := wire.AppendString(nil, "nosuch")
	begin = wire.AppendString(begin, "u")
	begin = wire.AppendString(begin, "")
	begin = append(begin, 0)
	if resp := app.Process(Command{CLA: AppletCLA, INS: INSBegin, Data: begin}); resp.SW != SWConditions {
		t.Errorf("begin without key: SW %04X", resp.SW)
	}
	// Begin with a bad query.
	_ = c.PutKey("doc", secure.KeyFromSeed("x"))
	_ = c.PutRuleSet(&accessrule.RuleSet{Subject: "u", DocID: "doc", DefaultSign: accessrule.Permit})
	begin = wire.AppendString(nil, "doc")
	begin = wire.AppendString(begin, "u")
	begin = wire.AppendString(begin, "not-an-xpath")
	begin = append(begin, 0)
	if resp := app.Process(Command{CLA: AppletCLA, INS: INSBegin, Data: begin}); resp.SW != SWWrongData {
		t.Errorf("bad query: SW %04X", resp.SW)
	}
}

func TestAppletTamperedBlockSecuritySW(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 4, Members: 3, EventsPerMember: 2})
	term, _, key := newAppletRig(t, doc, "a", "subject u\ndefault +")
	_ = term.ProvisionKey("a", key.Marshal())
	_ = term.InstallRules("u", "a")

	// Tamper the store, then drive the query: it must fail with an error
	// mentioning the security status word.
	if ms, ok := term.Store.(*dsp.MemStore); ok {
		_ = ms.Tamper("a", 1, 3)
	}
	if _, err := term.Query("u", "a", ""); err == nil {
		t.Fatal("tampered store went undetected over APDUs")
	}
}

func TestChunkPayload(t *testing.T) {
	chunks := chunkPayload([]byte{1, 2}, make([]byte, 600))
	if len(chunks) != 3 {
		t.Fatalf("602 bytes must make 3 chunks, got %d", len(chunks))
	}
	if len(chunks[0]) != MaxData || len(chunks[2]) != 602-2*MaxData {
		t.Errorf("chunk sizes wrong: %d, %d, %d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
	if got := chunkPayload(nil, nil); len(got) != 1 || got[0] != nil {
		t.Error("empty payload must make one empty chunk")
	}
}
