package xmlstream

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSerializeGolden pins the output format to hand-written strings.
// Every other check of rendered XML in the repository (the property
// tests, the benchmark's oracle) compares two products of this package's
// encoder, so a drift of the format itself would pass all of them.
func TestSerializeGolden(t *testing.T) {
	attr := func(name, value string) []Event {
		return []Event{OpenEvent("@" + name), ValueEvent(value), CloseEvent("@" + name)}
	}
	elem := func(name string, body ...[]Event) []Event {
		evs := []Event{OpenEvent(name)}
		for _, b := range body {
			evs = append(evs, b...)
		}
		return append(evs, CloseEvent(name))
	}
	text := func(s string) []Event { return []Event{ValueEvent(s)} }

	cases := []struct {
		name            string
		evs             []Event
		compact, indent string
	}{
		{"empty element", elem("a"), `<a/>`, `<a/>`},
		{"empty element with attributes", elem("a", attr("x", "1"), attr("y", "")),
			`<a x="1" y=""/>`, `<a x="1" y=""/>`},
		{"text", elem("a", text("hi")), `<a>hi</a>`, `<a>hi</a>`},
		{"empty text opens the element", elem("a", text("")), `<a></a>`, `<a></a>`},
		{"adjacent text runs together", elem("a", text("x"), text("y")), `<a>xy</a>`, `<a>xy</a>`},
		{"markup characters in text", elem("a", text(`1 < 2 && 3 > 2, "quoted" 'single'`)),
			`<a>1 &lt; 2 &amp;&amp; 3 &gt; 2, "quoted" 'single'</a>`,
			`<a>1 &lt; 2 &amp;&amp; 3 &gt; 2, "quoted" 'single'</a>`},
		{"markup characters in an attribute", elem("a", attr("v", `<"&">'`)),
			`<a v="&lt;&quot;&amp;&quot;&gt;'"/>`, `<a v="&lt;&quot;&amp;&quot;&gt;'"/>`},
		{"attribute value in chunks", elem("a", []Event{OpenEvent("@v"), ValueEvent("a<"), ValueEvent(">b"), CloseEvent("@v")}),
			`<a v="a&lt;&gt;b"/>`, `<a v="a&lt;&gt;b"/>`},
		{"nesting", elem("r", elem("a", elem("b", text("x"))), elem("c")),
			`<r><a><b>x</b></a><c/></r>`,
			"<r>\n  <a>\n    <b>x</b>\n  </a>\n  <c/>\n</r>"},
		{"attributes and children", elem("r", attr("id", "7"), elem("a", attr("k", "v"), text("x")), elem("b")),
			`<r id="7"><a k="v">x</a><b/></r>`,
			"<r id=\"7\">\n  <a k=\"v\">x</a>\n  <b/>\n</r>"},
		{"mixed content", elem("p", text("mixed "), elem("b", text("bold")), text(" tail")),
			`<p>mixed <b>bold</b> tail</p>`,
			"<p>mixed \n  <b>bold</b> tail</p>"},
		{"element then text then element", elem("p", elem("a"), text("t"), elem("b")),
			`<p><a/>t<b/></p>`,
			"<p>\n  <a/>t\n  <b/>\n</p>"},
	}
	for _, c := range cases {
		if got, err := Serialize(c.evs, WriterOptions{}); err != nil || got != c.compact {
			t.Errorf("%s, compact:\n got %q (%v)\nwant %q", c.name, got, err, c.compact)
		}
		if got, err := Serialize(c.evs, WriterOptions{Indent: "  "}); err != nil || got != c.indent {
			t.Errorf("%s, indented:\n got %q (%v)\nwant %q", c.name, got, err, c.indent)
		}
	}
}

// TestEncoderAppendsAfterPrefix: bytes already in the destination are
// neither touched nor taken for output (no newline before the root).
func TestEncoderAppendsAfterPrefix(t *testing.T) {
	dst := []byte("HDR")
	enc := NewEncoder(WriterOptions{Indent: "\t"}, len(dst))
	steps := []func([]byte) ([]byte, error){
		func(b []byte) ([]byte, error) { return enc.Open(b, "a") },
		func(b []byte) ([]byte, error) { return enc.OpenAttr(b, "@k") },
		func(b []byte) ([]byte, error) { return enc.Text(b, []byte(`"v"`)) },
		enc.CloseAttr,
		func(b []byte) ([]byte, error) { return enc.Open(b, "b") },
		func(b []byte) ([]byte, error) { return enc.Close(b, "b") },
		func(b []byte) ([]byte, error) { return enc.Close(b, "a") },
	}
	for i, step := range steps {
		var err error
		if dst, err = step(dst); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := "HDR<a k=\"&quot;v&quot;\">\n\t<b/>\n</a>"; string(dst) != want {
		t.Errorf("got %q, want %q", dst, want)
	}
}

// TestSerializeRejectsMalformedStreams: what cannot be written as XML is
// an error, never silently bent into something else.
func TestSerializeRejectsMalformedStreams(t *testing.T) {
	cases := map[string][]Event{
		"attribute after text":        {OpenEvent("a"), ValueEvent("x"), OpenEvent("@k"), ValueEvent("v"), CloseEvent("@k"), CloseEvent("a")},
		"attribute after a child":     {OpenEvent("a"), OpenEvent("b"), CloseEvent("b"), OpenEvent("@k"), CloseEvent("@k"), CloseEvent("a")},
		"element inside an attribute": {OpenEvent("a"), OpenEvent("@k"), OpenEvent("b"), CloseEvent("b"), CloseEvent("@k"), CloseEvent("a")},
		"nested attribute":            {OpenEvent("a"), OpenEvent("@k"), OpenEvent("@l"), CloseEvent("@l"), CloseEvent("@k"), CloseEvent("a")},
		"mismatched close":            {OpenEvent("a"), ValueEvent("x"), CloseEvent("b")},
		"mismatched empty close":      {OpenEvent("a"), CloseEvent("b")},
		"mismatched attribute close":  {OpenEvent("a"), OpenEvent("@k"), CloseEvent("@l"), CloseEvent("a")},
		"element closed in attribute": {OpenEvent("a"), OpenEvent("@k"), CloseEvent("a")},
		"text outside the root":       {ValueEvent("x")},
		"unterminated":                {OpenEvent("a"), OpenEvent("b"), CloseEvent("b")},
		"unterminated attribute":      {OpenEvent("a"), OpenEvent("@k")},
	}
	for name, evs := range cases {
		if out, err := Serialize(evs, WriterOptions{}); err == nil {
			t.Errorf("%s: serialized to %q", name, out)
		}
	}
}

// eventsFromBytes turns fuzz input into a well-formed event stream, one
// small instruction per byte: open an element, add an attribute (only
// where one may stand), add text, close. Names and texts come from
// fixed alphabets chosen to hit the escapes and the whitespace rules.
func eventsFromBytes(prog []byte) []Event {
	names := []string{"a", "b", "long-name", "x1", "_u", "n.s"}
	texts := []string{"t", "a&b", "<", ">", `"`, "'", " lead", "trail ", "in ner", "é", "]]>", "&amp;", "x\ny", "\ttab"}
	var evs []Event
	var open []string
	attrOK := false // directly after an Open or an attribute
	for _, b := range prog {
		op, arg := b&3, int(b>>2)
		switch {
		case len(open) == 0 && len(evs) > 0:
			return evs // the root is closed
		case op == 0 || len(open) == 0:
			name := names[arg%len(names)]
			evs = append(evs, OpenEvent(name))
			open = append(open, name)
			attrOK = true
		case op == 1 && attrOK:
			// The parser reports every attribute with a value, an empty
			// one included.
			name := "@" + names[arg%len(names)]
			evs = append(evs, OpenEvent(name), ValueEvent(append(texts, "")[arg%(len(texts)+1)]), CloseEvent(name))
		case op == 2:
			// One text per gap: the parser reads adjacent character data
			// as one value.
			if evs[len(evs)-1].Kind != Value {
				evs = append(evs, ValueEvent(texts[arg%len(texts)]))
				attrOK = false
			}
		default:
			evs = append(evs, CloseEvent(open[len(open)-1]))
			open = open[:len(open)-1]
			attrOK = false
		}
	}
	for len(open) > 0 {
		evs = append(evs, CloseEvent(open[len(open)-1]))
		open = open[:len(open)-1]
	}
	return evs
}

// FuzzSerializeRoundTrip: Parse(Serialize(evs)) yields evs, compact and
// indented alike where indentation cannot be taken for content.
func FuzzSerializeRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 5, 9, 0, 6, 3, 4, 10, 3, 3})
	f.Add([]byte{0, 0, 0, 2, 3, 3, 14, 3})
	f.Add([]byte{4, 1, 5, 9, 13, 22, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		evs := eventsFromBytes(prog)
		if len(evs) == 0 {
			return
		}
		out, err := Serialize(evs, WriterOptions{})
		if err != nil {
			t.Fatalf("well-formed stream refused: %v\n%v", err, evs)
		}
		back, err := ParseOptions([]byte(out), ParserOptions{KeepWhitespace: true})
		if err != nil {
			t.Fatalf("reparse of %q: %v", out, err)
		}
		if !equalEvents(evs, back) {
			t.Fatalf("round trip changed the stream\nxml: %q\n in: %v\nout: %v", out, evs, back)
		}

		// Indentation adds whitespace-only runs between tags, which the
		// default parser drops again — unless the document has text next
		// to an element (mixed content), where the newline joins the text.
		pretty, err := Serialize(evs, WriterOptions{Indent: "  "})
		if err != nil {
			t.Fatal(err)
		}
		if mixed(evs) {
			return
		}
		back, err = Parse([]byte(pretty))
		if err != nil {
			t.Fatalf("reparse of %q: %v", pretty, err)
		}
		if !equalEvents(evs, back) {
			t.Fatalf("indented round trip changed the stream\nxml: %q\n in: %v\nout: %v", pretty, evs, back)
		}
	})
}

func equalEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mixed reports whether some element has both text and element children.
func mixed(evs []Event) bool {
	type frame struct{ text, elem bool }
	var stack []frame
	inAttr := false
	for _, ev := range evs {
		switch {
		case ev.IsAttribute():
			inAttr = ev.Kind == Open
		case inAttr:
		case ev.Kind == Open:
			if len(stack) > 0 {
				stack[len(stack)-1].elem = true
			}
			stack = append(stack, frame{})
		case ev.Kind == Value:
			stack[len(stack)-1].text = true
		default:
			if top := stack[len(stack)-1]; top.text && top.elem {
				return true
			}
			stack = stack[:len(stack)-1]
		}
	}
	return false
}

// escapeReference is appendEscaped one byte at a time.
func escapeReference(dst []byte, s string, quot bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '&':
			dst = append(dst, "&amp;"...)
		case c == '<':
			dst = append(dst, "&lt;"...)
		case c == '>':
			dst = append(dst, "&gt;"...)
		case c == '"' && quot:
			dst = append(dst, "&quot;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// TestAppendEscapedMatchesReference: the word-at-a-time scan escapes
// exactly what a byte-at-a-time one does, for each special byte at each
// offset of strings long enough to hold several words, among fillers
// next to the special bytes' values and at or above 0x80, with quot on
// and off, through both the string and the []byte instantiations, and
// for random strings over those bytes.
func TestAppendEscapedMatchesReference(t *testing.T) {
	check := func(s string) {
		t.Helper()
		for _, quot := range []bool{false, true} {
			prefix := []byte("pre")
			want := escapeReference(append([]byte(nil), prefix...), s, quot)
			if got := appendEscaped(append([]byte(nil), prefix...), s, quot); !bytes.Equal(got, want) {
				t.Fatalf("string %q quot=%v: got %q, want %q", s, quot, got, want)
			}
			if got := appendEscaped(append([]byte(nil), prefix...), []byte(s), quot); !bytes.Equal(got, want) {
				t.Fatalf("[]byte %q quot=%v: got %q, want %q", s, quot, got, want)
			}
		}
	}
	specials := []byte{'&', '<', '>', '"'}
	fillers := []byte{'a', 0x00, 0x01, '%', '\'', '=', '?', '!', '#', 0x7f, 0x80, 0xa6, 0xbc, 0xfe, 0xff}
	for n := 1; n <= 26; n++ {
		for _, f := range fillers {
			plain := bytes.Repeat([]byte{f}, n)
			check(string(plain))
			for off := 0; off < n; off++ {
				for _, c := range specials {
					b := append([]byte(nil), plain...)
					b[off] = c
					check(string(b))
					if off+1 < n {
						b[off+1] = c // two in a row, possibly across a word boundary
						check(string(b))
					}
				}
			}
		}
	}
	alphabet := append(append([]byte(nil), specials...), fillers...)
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 5000; k++ {
		b := make([]byte, rng.Intn(70))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(b))
	}
}
