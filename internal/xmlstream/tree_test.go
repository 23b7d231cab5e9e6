package xmlstream

import (
	"testing"
)

func mustParse(t *testing.T, src string) []Event {
	t.Helper()
	evs, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return evs
}

func TestBuildTreeAndBack(t *testing.T) {
	evs := mustParse(t, `<a x="1"><b>t</b><c><d/></c></a>`)
	tree, err := BuildTree(evs)
	if err != nil {
		t.Fatal(err)
	}
	back := tree.Events()
	if len(back) != len(evs) {
		t.Fatalf("round trip changed event count: %d -> %d", len(evs), len(back))
	}
	for i := range evs {
		if evs[i] != back[i] {
			t.Errorf("event %d: %v -> %v", i, evs[i], back[i])
		}
	}
}

// TestEventsSizedExactly: Events() allocates the slice once, at its
// final length, and flattens to what growing it event by event gave.
func TestEventsSizedExactly(t *testing.T) {
	var grown func(n *Node, evs []Event) []Event
	grown = func(n *Node, evs []Event) []Event {
		if n.IsText() {
			return append(evs, ValueEvent(n.Text))
		}
		evs = append(evs, OpenEvent(n.Name))
		for _, c := range n.Children {
			evs = grown(c, evs)
		}
		return append(evs, CloseEvent(n.Name))
	}
	wide := &Node{Name: "list"}
	for i := 0; i < 300; i++ {
		wide.Children = append(wide.Children, &Node{Name: "item", Children: []*Node{{Text: "v"}, {Name: "empty"}, {Text: ""}}})
	}
	deep := &Node{Name: "leaf"}
	for i := 0; i < 40; i++ {
		deep = &Node{Name: "level", Children: []*Node{{Text: "before"}, deep, {Text: "after"}}}
	}
	mixed, err := BuildTree(mustParse(t, `<a x="1"><b>t</b><c><d/></c>tail</a>`))
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*Node{"single": {Name: "only"}, "wide": wide, "deep": deep, "mixed": mixed} {
		got, want := tree.Events(), grown(tree, nil)
		if len(got) != cap(got) {
			t.Errorf("%s: %d events in a slice of capacity %d", name, len(got), cap(got))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d is %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestBuildTreeErrors(t *testing.T) {
	bad := [][]Event{
		{OpenEvent("a")},                  // unclosed
		{OpenEvent("a"), CloseEvent("b")}, // mismatch
		{CloseEvent("a")},                 // close first
		{ValueEvent("x")},                 // text only
		{},                                // empty
		{OpenEvent("a"), CloseEvent("a"), OpenEvent("b"), CloseEvent("b")}, // two roots
	}
	for i, evs := range bad {
		if _, err := BuildTree(evs); err == nil {
			t.Errorf("case %d: BuildTree succeeded, want error", i)
		}
	}
}

func TestNodeEqualAndFind(t *testing.T) {
	a, _ := BuildTree(mustParse(t, `<r><a>1</a><b><a>2</a></b></r>`))
	b, _ := BuildTree(mustParse(t, `<r><a>1</a><b><a>2</a></b></r>`))
	c, _ := BuildTree(mustParse(t, `<r><a>1</a><b><a>3</a></b></r>`))
	if !a.Equal(b) {
		t.Error("identical trees not Equal")
	}
	if a.Equal(c) {
		t.Error("different trees Equal")
	}
	if got := len(a.Find("a")); got != 2 {
		t.Errorf("Find(a) = %d nodes, want 2", got)
	}
	if got := a.TextContent(); got != "12" {
		t.Errorf("TextContent = %q, want \"12\"", got)
	}
}

func TestCollectStats(t *testing.T) {
	evs := mustParse(t, `<r i="1"><a>xx</a><a>yy</a><b><c/></b></r>`)
	s := CollectStats(evs)
	if s.Elements != 5 {
		t.Errorf("Elements = %d, want 5", s.Elements)
	}
	if s.Attributes != 1 {
		t.Errorf("Attributes = %d, want 1", s.Attributes)
	}
	if s.TextNodes != 3 || s.TextBytes != 5 {
		t.Errorf("TextNodes=%d TextBytes=%d, want 3/5", s.TextNodes, s.TextBytes)
	}
	if s.MaxDepth != 3 {
		t.Errorf("MaxDepth = %d, want 3", s.MaxDepth)
	}
	if s.DistinctTags != 5 {
		t.Errorf("DistinctTags = %d, want 5", s.DistinctTags)
	}
}

func TestIsAttribute(t *testing.T) {
	if !(&Node{Name: "@id"}).IsAttribute() {
		t.Error("@id should be an attribute")
	}
	if (&Node{Name: "id"}).IsAttribute() {
		t.Error("id should not be an attribute")
	}
	if !OpenEvent("@x").IsAttribute() {
		t.Error("event @x should be an attribute")
	}
}

func TestWriterIndent(t *testing.T) {
	evs := mustParse(t, `<a><b>x</b></a>`)
	out, err := Serialize(evs, WriterOptions{Indent: "  "})
	if err != nil {
		t.Fatal(err)
	}
	want := "<a>\n  <b>x</b>\n</a>"
	if out != want {
		t.Errorf("indented output:\n%s\nwant:\n%s", out, want)
	}
}

func TestWriterErrors(t *testing.T) {
	w := NewWriter(WriterOptions{})
	if err := w.WriteEvent(CloseEvent("a")); err == nil {
		t.Error("close with nothing open should fail")
	}
	w = NewWriter(WriterOptions{})
	if err := w.WriteEvent(OpenEvent("@attr")); err == nil {
		t.Error("attribute outside opening tag should fail")
	}
	w = NewWriter(WriterOptions{})
	_ = w.WriteEvent(OpenEvent("a"))
	if w.Err() == nil {
		t.Error("Err() should report unterminated element")
	}
}
