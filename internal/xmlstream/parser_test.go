package xmlstream

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	evs, err := Parse([]byte(`<a><b>hi</b><c/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		OpenEvent("a"),
		OpenEvent("b"), ValueEvent("hi"), CloseEvent("b"),
		OpenEvent("c"), CloseEvent("c"),
		CloseEvent("a"),
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(evs), len(want), evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, evs[i], want[i])
		}
	}
}

func TestParseAttributes(t *testing.T) {
	evs, err := Parse([]byte(`<a id="1" lang='fr'><b x="&amp;"/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		OpenEvent("a"),
		OpenEvent("@id"), ValueEvent("1"), CloseEvent("@id"),
		OpenEvent("@lang"), ValueEvent("fr"), CloseEvent("@lang"),
		OpenEvent("b"),
		OpenEvent("@x"), ValueEvent("&"), CloseEvent("@x"),
		CloseEvent("b"),
		CloseEvent("a"),
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(evs), evs, len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, evs[i], want[i])
		}
	}
}

func TestParseProlog(t *testing.T) {
	src := `<?xml version="1.0"?>
<!DOCTYPE doc [<!ELEMENT doc ANY>]>
<!-- top comment -->
<doc><![CDATA[raw <stuff> & more]]></doc>`
	evs, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events: %v", len(evs), evs)
	}
	if evs[1].Text != "raw <stuff> & more" {
		t.Errorf("CDATA text = %q", evs[1].Text)
	}
}

func TestParseEntities(t *testing.T) {
	evs, err := Parse([]byte(`<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := evs[1].Text, `<>&"'AB`; got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
}

func TestParseWhitespaceHandling(t *testing.T) {
	src := []byte("<a>\n  <b>x</b>\n</a>")
	evs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 {
		t.Fatalf("default options should drop whitespace-only text: %v", evs)
	}
	evs, err = ParseOptions(src, ParserOptions{KeepWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 7 {
		t.Fatalf("KeepWhitespace should keep both text runs: %v", evs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unclosed element", `<a><b></b>`},
		{"mismatched close", `<a></b>`},
		{"stray close", `</a>`},
		{"two roots", `<a/><b/>`},
		{"text outside root", `hello<a/>`},
		{"bad entity", `<a>&nosuch;</a>`},
		{"unterminated entity", `<a>&amp</a>`},
		{"unterminated comment", `<!-- foo`},
		{"unterminated cdata", `<a><![CDATA[x</a>`},
		{"attr without value", `<a id></a>`},
		{"attr unquoted", `<a id=1></a>`},
		{"truncated tag", `<a`},
		{"empty char ref", `<a>&#;</a>`},
		{"huge char ref", `<a>&#1114112;</a>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.src)); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestParserPullEOF(t *testing.T) {
	p := NewParserOptions([]byte(`<a/>`), ParserOptions{})
	for i := 0; i < 2; i++ {
		if _, err := p.Next(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	// EOF must be sticky.
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("second call: want io.EOF, got %v", err)
	}
}

func TestSelfClosingWithAttrs(t *testing.T) {
	evs, err := Parse([]byte(`<a x="1"/>`))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		OpenEvent("a"),
		OpenEvent("@x"), ValueEvent("1"), CloseEvent("@x"),
		CloseEvent("a"),
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d: got %v want %v", i, evs[i], want[i])
		}
	}
}

// TestRoundTrip checks Parse∘Serialize is the identity on event streams.
func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`<a><b>hi</b><c/></a>`,
		`<root id="7"><x y="z">v</x><x>w</x></root>`,
		`<a>mixed <b>bold</b> tail</a>`,
	}
	for _, src := range srcs {
		evs, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		out, err := Serialize(evs, WriterOptions{})
		if err != nil {
			t.Fatalf("%s: serialize: %v", src, err)
		}
		evs2, err := Parse([]byte(out))
		if err != nil {
			t.Fatalf("%s: reparse of %q: %v", src, out, err)
		}
		if len(evs) != len(evs2) {
			t.Fatalf("%s: %d events became %d (%q)", src, len(evs), len(evs2), out)
		}
		for i := range evs {
			if evs[i] != evs2[i] {
				t.Errorf("%s: event %d changed: %v -> %v", src, i, evs[i], evs2[i])
			}
		}
	}
}

// TestEscapingQuick property: any text survives a serialize/parse cycle.
func TestEscapingQuick(t *testing.T) {
	f := func(text string) bool {
		if strings.ContainsAny(text, "\r") {
			return true // carriage returns are line-ending-normalized by XML
		}
		if !validXMLChars(text) {
			return true
		}
		evs := []Event{OpenEvent("t"), ValueEvent(text), CloseEvent("t")}
		out, err := Serialize(evs, WriterOptions{})
		if err != nil {
			return false
		}
		back, err := ParseOptions([]byte(out), ParserOptions{KeepWhitespace: true})
		if err != nil {
			return false
		}
		if text == "" {
			return len(back) == 2
		}
		return len(back) == 3 && back[1].Text == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func validXMLChars(s string) bool {
	for _, r := range s {
		if r == 0xFFFD || r < 0x20 && r != '\t' && r != '\n' {
			return false
		}
	}
	return true
}
