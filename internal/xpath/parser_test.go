package xpath

import (
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	exprs := []string{
		"/a",
		"//b",
		"/a/b/c",
		"//b[c]/d",
		"/a//b",
		"//*",
		"/a/*/c",
		"/a/@id",
		"//@*",
		"/a[b]",
		"/a[b/c]",
		"/a[b//c]",
		`/a[b = "v"]`,
		`/a[b != "v"]`,
		`/a[. = "self"]`,
		`//patient[@id = "12"]/diagnosis`,
		"/a[b][c]",
		"/a[b[c]/d]",
		`//x[@y = "1"]//z`,
		`/a[b = '"']`,
		`/a[. != 'say "hi"']`,
	}
	for _, expr := range exprs {
		p, err := Parse(expr)
		if err != nil {
			t.Errorf("Parse(%q): %v", expr, err)
			continue
		}
		if got := p.String(); got != expr {
			t.Errorf("Parse(%q).String() = %q", expr, got)
		}
		// Reparse of the printed form must be structurally equal.
		p2, err := Parse(p.String())
		if err != nil {
			t.Errorf("reparse of %q: %v", p.String(), err)
			continue
		}
		if !p.Equal(p2) {
			t.Errorf("reparse of %q not Equal", expr)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"a/b",      // relative where absolute required
		"/",        // empty path
		"/a[",      // unterminated predicate
		"/a[]",     // empty predicate
		"/a[b",     // missing ]
		"/a[.]",    // bare '.' without comparison
		`/a[b="v]`, // unterminated literal
		"/a[b=v]",  // unquoted literal
		"/a/",      // trailing slash
		"/a b",     // trailing junk
		"/a[b]x",   // junk after predicate
		"//",       // descendant of nothing
		"/a[/b]",   // absolute predicate path is not in the fragment
	}
	for _, expr := range bad {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", expr)
		}
	}
}

func TestParseRelative(t *testing.T) {
	for _, expr := range []string{"a", "a/b", "a//b", "@id", "*", "a[b]"} {
		p := &parser{src: expr}
		path, err := p.parsePath(false)
		if err != nil || !p.eof() {
			t.Errorf("relative path %q: %v, %q left", expr, err, p.rest())
			continue
		}
		if got := path.RelString(); got != expr {
			t.Errorf("relative path %q renders as %q", expr, got)
		}
	}
}

func TestPathProperties(t *testing.T) {
	p := MustParse(`//b[c]/d`)
	if !p.HasDescendant() {
		t.Error("//b[c]/d should report a descendant axis")
	}
	if p.PredCount() != 1 {
		t.Errorf("PredCount = %d, want 1", p.PredCount())
	}
	names := p.NameTests()
	if len(names) != 3 {
		t.Errorf("NameTests = %v, want [b c d]", names)
	}

	q := MustParse("/a/*/c")
	if q.HasDescendant() {
		t.Error("/a/*/c should not report a descendant axis")
	}
	if got := len(q.NameTests()); got != 2 {
		t.Errorf("NameTests of /a/*/c = %d entries, want 2 (wildcard excluded)", got)
	}

	nested := MustParse("/a[b[c]/d]")
	if nested.PredCount() != 2 {
		t.Errorf("nested PredCount = %d, want 2", nested.PredCount())
	}
}

func TestStepMatchesName(t *testing.T) {
	cases := []struct {
		test, name string
		want       bool
	}{
		{"*", "a", true},
		{"*", "@a", false},
		{"@*", "@a", true},
		{"@*", "a", false},
		{"a", "a", true},
		{"a", "b", false},
		{"@id", "@id", true},
		{"@id", "id", false},
	}
	for _, c := range cases {
		s := Step{Name: c.test}
		if got := s.MatchesName(c.name); got != c.want {
			t.Errorf("Step(%q).MatchesName(%q) = %v, want %v", c.test, c.name, got, c.want)
		}
	}
}

func TestWildcardAndAttrFlags(t *testing.T) {
	if !(Step{Name: "*"}).Wildcard() || !(Step{Name: "@*"}).Wildcard() {
		t.Error("* and @* must be wildcards")
	}
	if (Step{Name: "a"}).Wildcard() {
		t.Error("a must not be a wildcard")
	}
}

// FuzzXPathParse feeds arbitrary text to the parser of rule objects and
// queries, both of which arrive from outside (a sealed rule set, a
// client's query): parsing never panics, and an accepted path prints to
// text that parses back to an equal path.
func FuzzXPathParse(f *testing.F) {
	for _, seed := range []string{"/a", "//b[c]/d", `/a[b = "v"][. != 'w']`, "/a/@*", "//*[b//c]", "/a[", `/a[b='"']`} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := Parse(expr)
		if err != nil {
			return
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) prints as %q, which does not parse: %v", expr, p.String(), err)
		}
		if !back.Equal(p) {
			t.Fatalf("Parse(%q) prints as %q, which parses to another path", expr, p.String())
		}
	})
}
