package accessrule

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

func TestParseSet(t *testing.T) {
	rs, err := ParseSet(`
# a comment
subject nurse
doc folder1
default -
+ /folder            # trailing comment
- //ssn
+ //patient[@id = "7"]
`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Subject != "nurse" || rs.DocID != "folder1" || rs.DefaultSign != Deny {
		t.Errorf("header fields wrong: %+v", rs)
	}
	if len(rs.Rules) != 3 {
		t.Fatalf("got %d rules", len(rs.Rules))
	}
	if rs.Rules[0].Sign != Permit || rs.Rules[1].Sign != Deny {
		t.Error("signs wrong")
	}
	if rs.Rules[2].Object.String() != `//patient[@id = "7"]` {
		t.Errorf("object wrong: %s", rs.Rules[2].Object)
	}
}

func TestParseSetErrors(t *testing.T) {
	bad := []string{
		"",                     // no subject
		"subject u\n* //x",     // bad line
		"subject u\ndefault ?", // bad default
		"subject u\n+ not-a-path",
		"subject u\n+",
	}
	for _, text := range bad {
		if _, err := ParseSet(text); err == nil {
			t.Errorf("ParseSet(%q) succeeded", text)
		}
	}
}

func TestRuleSetValidate(t *testing.T) {
	rs := &RuleSet{Subject: "u", DefaultSign: Deny, Rules: []Rule{
		{ID: "r1", Sign: Permit, Object: xpath.MustParse("/a")},
		{ID: "r1", Sign: Deny, Object: xpath.MustParse("/b")},
	}}
	if err := rs.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate rule ids must be rejected, got %v", err)
	}
	rs.Rules[1].ID = "r2"
	rs.Rules[1].Sign = 0
	if err := rs.Validate(); err == nil {
		t.Error("invalid sign must be rejected")
	}
}

func TestRuleSetTextRoundTrip(t *testing.T) {
	rs, _ := ParseSet("subject u\ndoc d\ndefault +\n+ //a\n- /b/c")
	back, err := ParseSet(rs.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Subject != rs.Subject || back.DocID != rs.DocID ||
		back.DefaultSign != rs.DefaultSign || len(back.Rules) != len(rs.Rules) {
		t.Fatalf("text round trip changed the set:\n%s\nvs\n%s", rs, back)
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	rs, _ := ParseSet(`subject carol` + "\n" + `doc agenda` + "\n" + `default -` + "\n" +
		`+ //event[visibility = "public"]` + "\n" + `- //phone`)
	rs.Version = 42
	blob, err := rs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRuleSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Subject != "carol" || back.Version != 42 || len(back.Rules) != 2 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if !back.Rules[0].Object.Equal(rs.Rules[0].Object) {
		t.Error("rule object changed")
	}
}

func TestBinaryCodecErrors(t *testing.T) {
	rs, _ := ParseSet("subject u\n+ /a")
	blob, _ := rs.MarshalBinary()
	if _, err := UnmarshalRuleSet(blob[:len(blob)-2]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := UnmarshalRuleSet(append(blob, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := UnmarshalRuleSet([]byte{99}); err == nil {
		t.Error("bad version accepted")
	}
}

// TestUnmarshalRuleSetHugeStringLength: a string length near 2^64 must
// be refused as truncated, not wrap the bounds check to a negative end.
func TestUnmarshalRuleSetHugeStringLength(t *testing.T) {
	blob := binary.AppendUvarint([]byte{codecVersion}, 1<<63)
	if _, err := UnmarshalRuleSet(blob); err == nil {
		t.Fatal("a string longer than the blob was accepted")
	}
}

// FuzzUnmarshalRuleSet feeds arbitrary bytes to the rule-set decoder, the
// plaintext the card gets from a sealed blob the store hands over:
// decoding never panics, and an accepted rule set re-encodes to bytes
// that decode to the same encoding again.
func FuzzUnmarshalRuleSet(f *testing.F) {
	rs, _ := ParseSet("subject carol\ndoc agenda\ndefault -\n+ //event[visibility = \"public\"]\n- //phone")
	blob, _ := rs.MarshalBinary()
	for _, seed := range [][]byte{blob, blob[:len(blob)/2], {codecVersion}, binary.AppendUvarint([]byte{codecVersion}, 1<<63)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := UnmarshalRuleSet(data)
		if err != nil {
			return
		}
		enc, err := rs.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted rule set does not re-encode: %v", err)
		}
		back, err := UnmarshalRuleSet(enc)
		if err != nil {
			t.Fatalf("re-encoded rule set does not decode: %v", err)
		}
		if again, _ := back.MarshalBinary(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n %x\n %x", enc, again)
		}
	})
}

func mustTree(t *testing.T, src string) *xmlstream.Node {
	t.Helper()
	evs, err := xmlstream.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	n, err := xmlstream.BuildTree(evs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDecideSemantics(t *testing.T) {
	doc := mustTree(t, `<a><b><c/></b><d/></a>`)
	rs, _ := ParseSet("subject u\ndefault -\n+ /a/b\n- /a/b/c")
	dec := Decide(doc, rs)
	b := doc.Find("b")[0]
	c := doc.Find("c")[0]
	d := doc.Find("d")[0]
	if dec[doc] != Deny {
		t.Error("root must inherit the default deny")
	}
	if dec[b] != Permit {
		t.Error("b has a direct permit")
	}
	if dec[c] != Deny {
		t.Error("c has a direct deny (most specific over inherited permit)")
	}
	if dec[d] != Deny {
		t.Error("d inherits the default")
	}
}

func TestDecideDenialPrecedence(t *testing.T) {
	doc := mustTree(t, `<a><b/></a>`)
	rs, _ := ParseSet("subject u\ndefault +\n+ //b\n- //b")
	if dec := Decide(doc, rs); dec[doc.Find("b")[0]] != Deny {
		t.Error("denial must take precedence among direct rules")
	}
}

func TestApplyTreeStructurePreservation(t *testing.T) {
	doc := mustTree(t, `<a><b><keep>x</keep><drop>y</drop></b></a>`)
	rs, _ := ParseSet("subject u\ndefault -\n+ //keep")
	view := ApplyTree(doc, rs)
	if view == nil {
		t.Fatal("view must not be empty")
	}
	// a and b survive as bare structure, drop vanishes, keep's text stays.
	if len(view.Find("drop")) != 0 {
		t.Error("denied sibling leaked")
	}
	if got := view.TextContent(); got != "x" {
		t.Errorf("view text = %q, want x", got)
	}
	if len(view.Find("b")) != 1 {
		t.Error("structural ancestor pruned")
	}
}

func TestApplyTreeNilWhenNothingVisible(t *testing.T) {
	doc := mustTree(t, `<a><b>x</b></a>`)
	rs, _ := ParseSet("subject u\ndefault -")
	if view := ApplyTree(doc, rs); view != nil {
		t.Errorf("closed policy must yield nil, got %v", view)
	}
}

func TestApplyTreeQueryScoping(t *testing.T) {
	doc := mustTree(t, `<a><b>1</b><c>2</c></a>`)
	rs, _ := ParseSet("subject u\ndefault +")
	view := ApplyTreeQuery(doc, rs, xpath.MustParse("/a/c"))
	if view == nil || view.TextContent() != "2" {
		t.Fatalf("query view = %v", view)
	}
	if len(view.Find("b")) != 0 {
		t.Error("query must exclude non-matching subtrees")
	}
}

func TestSignString(t *testing.T) {
	if Permit.String() != "+" || Deny.String() != "-" {
		t.Error("sign rendering wrong")
	}
	r := Rule{Sign: Permit, Object: xpath.MustParse("//b[c]/d")}
	if r.String() != "+ //b[c]/d" {
		t.Errorf("rule rendering = %q", r.String())
	}
}
