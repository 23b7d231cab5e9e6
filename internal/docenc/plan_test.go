package docenc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/secure"
	"repro/internal/xmlstream"
)

func el(name string, children ...*xmlstream.Node) *xmlstream.Node {
	return &xmlstream.Node{Name: name, Children: children}
}

func txt(s string) *xmlstream.Node { return &xmlstream.Node{Text: s} }

// diffThroughPlan diffs tree against base twice, through plan into dst
// and with no plan, fails unless the two agree on the header, every
// delta run, the returned payload and the EncodeInfo, and returns the
// delta and the payload: the next step's base.
func diffThroughPlan(t testing.TB, plan *Plan, tree *xmlstream.Node, opts EncodeOptions, base *Header, basePayload, dst []byte) (*DeltaUpdate, []byte) {
	t.Helper()
	got, gotInfo, gotPayload, err := DiffEncodePayload(tree, opts, nil, plan, base, basePayload, dst)
	if err != nil {
		t.Fatalf("through the plan: %v", err)
	}
	want, wantInfo, wantPayload, err := DiffEncodePayload(tree, opts, nil, nil, base, basePayload, nil)
	if err != nil {
		t.Fatalf("planned afresh: %v", err)
	}
	gh, _ := got.Header.MarshalBinary()
	wh, _ := want.Header.MarshalBinary()
	if !bytes.Equal(gh, wh) {
		t.Fatalf("headers differ:\n%+v\n%+v", got.Header, want.Header)
	}
	if got.BaseVersion != want.BaseVersion || got.BaseMAC != want.BaseMAC || got.TotalBlocks != want.TotalBlocks ||
		got.ChangedBlocks != want.ChangedBlocks || got.BytesChanged != want.BytesChanged || len(got.Runs) != len(want.Runs) {
		t.Fatalf("deltas differ: %d/%d blocks in %d runs, want %d/%d in %d",
			got.ChangedBlocks, got.TotalBlocks, len(got.Runs), want.ChangedBlocks, want.TotalBlocks, len(want.Runs))
	}
	for i, r := range want.Runs {
		g := got.Runs[i]
		if g.Start != r.Start || len(g.Blocks) != len(r.Blocks) {
			t.Fatalf("run %d covers %d+%d, want %d+%d", i, g.Start, len(g.Blocks), r.Start, len(r.Blocks))
		}
		for j := range r.Blocks {
			if !bytes.Equal(g.Blocks[j], r.Blocks[j]) {
				t.Fatalf("block %d differs", r.Start+j)
			}
		}
	}
	if !bytes.Equal(gotPayload, wantPayload) {
		t.Fatal("payloads differ")
	}
	gi, wi := *gotInfo, *wantInfo
	if strings.Join(gi.Dict.Names(), ",") != strings.Join(wi.Dict.Names(), ",") {
		t.Fatalf("dictionaries differ: %v, want %v", gi.Dict.Names(), wi.Dict.Names())
	}
	gi.Dict, wi.Dict = nil, nil
	if gi != wi {
		t.Fatalf("EncodeInfo %+v, want %+v", gi, wi)
	}
	return got, gotPayload
}

// rewritten counts the records the plan's last diff wrote rather than
// copied: its dirty elements, as every ancestor of one is dirty too.
func rewritten(p *Plan) int {
	n := 0
	for _, info := range p.nodes {
		if info.dirty {
			n++
		}
	}
	return n
}

// TestPlanReuseMatchesFreshPlan drives one plan through edits that keep
// the preorder sequence of element names but not the shape — a sibling
// nested under its predecessor and back, one tag renamed with every
// count kept, two differently named siblings swapped, a value turned
// into an element — and through changes of the index options. Each
// diff must equal one planned afresh, and the plan is kept exactly when
// the shape and the options are. Then a plan diffs against the payload
// it last emitted, copying what each edit left alone, and against bases
// it did not emit.
func TestPlanReuseMatchesFreshPlan(t *testing.T) {
	tree := func(a *xmlstream.Node, rest ...*xmlstream.Node) *xmlstream.Node {
		return el("doc", append([]*xmlstream.Node{a}, rest...)...)
	}
	first := el("a", el("x", txt("11111111")))
	second := el("b", el("y", txt("2222222222")))
	third := el("a", el("x", txt("33333333")), el("z", txt("4444")))
	last := el("c", txt("some text"))
	steps := []struct {
		what  string
		tree  *xmlstream.Node
		edit  func(*EncodeOptions)
		reuse bool
	}{
		{"same tree", tree(first, second, third, last), nil, true},
		{"value edit", tree(first, el("b", el("y", txt("2"))), third, last), nil, true},
		{"sibling nested under its predecessor", tree(el("a", el("x", txt("11111111")), second), third, last), nil, false},
		{"and un-nested", tree(first, second, third, last), nil, false},
		{"value edit again", tree(first, second, third, el("c", txt("other text, longer"))), nil, true},
		{"tag renamed, counts kept", tree(first, second, third, el("d", txt("some text"))), nil, false},
		{"differently named siblings swapped", tree(first, third, second, el("d", txt("some text"))), nil, false},
		{"value turned into an element", tree(first, third, second, el("d", el("x"))), nil, false},
		{"MinSkipBytes changed", tree(first, third, second, el("d", el("x"))), func(o *EncodeOptions) { o.MinSkipBytes = 24 }, false},
		{"DisableIndex set", tree(first, third, second, el("d", el("x"))), func(o *EncodeOptions) { o.DisableIndex = true }, false},
		{"DisableIndex kept", tree(first, third, second, el("d", el("x", txt("v")))), nil, true},
		{"DisableIndex cleared", tree(first, third, second, el("d", el("x", txt("v")))), func(o *EncodeOptions) { o.DisableIndex = false }, false},
	}
	opts := EncodeOptions{DocID: "plan", Key: secure.KeyFromSeed("plan"), BlockPlain: 32, MinSkipBytes: 8}
	c, _, err := Encode(steps[0].tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := c.DecryptPayload(opts.Key)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Header
	var plan Plan
	if err := plan.size(steps[0].tree, opts, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if s.edit != nil {
			s.edit(&opts)
		}
		dict := plan.dict
		d, next := diffThroughPlan(t, &plan, s.tree, opts, &base, payload, nil)
		if reused := plan.dict == dict; reused != s.reuse {
			t.Fatalf("%s: plan kept %v, want %v", s.what, reused, s.reuse)
		}
		base, payload = d.Header, next
	}

	// The copy path: one plan diffs a folder against the payload it last
	// emitted through edits of every kind, writing the records an edit
	// touched and their ancestors and copying the rest, and against bases
	// it did not emit, writing every record. Slots: the folder is 0,
	// patient i is 1+5i, its name, contact, phone and notes follow.
	patient := func(i int) *xmlstream.Node {
		return el("patient",
			el("name", txt(fmt.Sprintf("patient %02d", i))),
			el("contact", el("phone", txt(fmt.Sprintf("+33 1 %08d", i)))),
			el("notes", txt(strings.Repeat("n", 20+i))))
	}
	folder := el("folder")
	for i := 0; i < 6; i++ {
		folder.Children = append(folder.Children, patient(i))
	}
	value := func(i, child int) *xmlstream.Node {
		n := folder.Children[i].Children[child]
		if n.Name == "contact" {
			n = n.Children[0]
		}
		return n.Children[0]
	}
	opts = EncodeOptions{DocID: "folder", Key: secure.KeyFromSeed("folder"), BlockPlain: 32, MinSkipBytes: 16}
	c, _, err = Encode(folder, opts)
	if err != nil {
		t.Fatal(err)
	}
	if payload, err = c.DecryptPayload(opts.Key); err != nil {
		t.Fatal(err)
	}
	base, plan = c.Header, Plan{}
	// flips says the edit indexes patient 1's name (slot 7), which was
	// not indexed.
	edits := []struct {
		what      string
		edit      func()
		rewritten int
		flips     bool
	}{
		{"first diff, over a base the plan did not emit", func() {}, 31, false},
		{"identical tree", func() {}, 0, false},
		{"same-length value edit", func() { value(2, 1).Text = "+33 1 99999999" }, 4, false},
		{"length-changing edit", func() { value(3, 2).Text += " and more" }, 3, false},
		{"edit in the first element", func() { value(0, 0).Text = "patient XX" }, 3, false},
		{"edit in the last element", func() { value(5, 2).Text = "short" }, 3, false},
		{"index decision flip", func() { value(1, 0).Text = "patient 01 new" }, 3, true},
		{"a value grown past a one-byte length", func() { value(4, 2).Text = strings.Repeat("m", 200) }, 3, false},
		{"same-length edit of that value", func() { value(4, 2).Text = strings.Repeat("M", 200) }, 3, false},
	}
	for _, e := range edits {
		indexed := plan.nodes != nil && plan.nodes[7].indexed
		e.edit()
		d, next := diffThroughPlan(t, &plan, folder, opts, &base, payload, nil)
		if got := rewritten(&plan); got != e.rewritten {
			t.Fatalf("%s: %d records written, want %d", e.what, got, e.rewritten)
		}
		if e.rewritten == 0 && d.ChangedBlocks != 0 {
			t.Fatalf("%s: %d blocks changed", e.what, d.ChangedBlocks)
		}
		if e.flips && (indexed || !plan.nodes[7].indexed) {
			t.Fatalf("%s: indexed %v -> %v, want false -> true", e.what, indexed, plan.nodes[7].indexed)
		}
		base, payload = d.Header, next
	}

	// A foreign base of the right length: the payload of the tree with
	// one value other than the one the plan last emitted.
	was := value(4, 1).Text
	value(4, 1).Text = "+33 1 77777777"
	foreign, _, err := EncodePayload(folder, opts)
	if err != nil {
		t.Fatal(err)
	}
	value(4, 1).Text = was
	if len(foreign) != len(payload) {
		t.Fatalf("foreign base is %d bytes, want %d", len(foreign), len(payload))
	}
	d, next := diffThroughPlan(t, &plan, folder, opts, &base, foreign, nil)
	if got := rewritten(&plan); got != len(plan.nodes) {
		t.Fatalf("foreign base: %d records written, want all %d", got, len(plan.nodes))
	}
	base, payload = d.Header, next

	// The rollback sequence: a diff whose commit is refused leaves the
	// caller on its base, and its next diff goes into the buffer the plan
	// last emitted into; the one after copies from that diff's payload.
	spare := make([]byte, 0, len(payload)+64)
	value(2, 2).Text += "!"
	diffThroughPlan(t, &plan, folder, opts, &base, payload, spare)
	value(2, 0).Text = "patient YY"
	d, next = diffThroughPlan(t, &plan, folder, opts, &base, payload, spare)
	if got := rewritten(&plan); got != len(plan.nodes) {
		t.Fatalf("after a rollback: %d records written, want all %d", got, len(plan.nodes))
	}
	base, payload, spare = d.Header, next, payload
	value(4, 1).Text = "+33 1 55555555"
	diffThroughPlan(t, &plan, folder, opts, &base, payload, spare)
	if got := rewritten(&plan); got != 4 {
		t.Fatalf("after a rollback and a commit: %d records written, want 4", got)
	}
}

// TestDiffEncodeRefusesOverlappingDst: the payload a diff writes into
// dst must not overwrite the base it reads. A dst sharing a byte of its
// capacity with basePayload is refused; one ending where it begins is
// not.
func TestDiffEncodeRefusesOverlappingDst(t *testing.T) {
	tree := el("doc", el("a", txt("some text")), el("b", txt("more text")))
	opts := EncodeOptions{DocID: "overlap", Key: secure.KeyFromSeed("overlap"), BlockPlain: 32}
	c, _, err := Encode(tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := c.DecryptPayload(opts.Key)
	if err != nil {
		t.Fatal(err)
	}
	n := len(payload)
	buf := make([]byte, 3*n)
	copy(buf[n:], payload)
	base := buf[n : 2*n : 2*n]
	for _, dst := range [][]byte{base[:0], buf[:0], buf[2*n-1 : 2*n-1], buf[n+1 : n+1]} {
		if _, _, _, err := DiffEncodePayload(tree, opts, nil, nil, &c.Header, base, dst); err == nil {
			t.Fatal("a dst overlapping the base was accepted")
		}
	}
	for _, dst := range [][]byte{buf[:0:n], buf[2*n : 2*n]} {
		if _, _, got, err := DiffEncodePayload(tree, opts, nil, nil, &c.Header, base, dst); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("a dst beside the base: %v", err)
		}
	}
}

// fuzzTree builds a tree under a root element from bytes: the low two
// bits of each byte open a child element, close the current one, or add
// a value, and the other six pick the element's name or the value's
// length. Inputs that differ only in those six bits of their values
// give trees of one shape.
func fuzzTree(data []byte) *xmlstream.Node {
	names := []string{"a", "b", "c", "d", "e"}
	root := el("r")
	stack := []*xmlstream.Node{root}
	for _, c := range data {
		top, arg := stack[len(stack)-1], int(c>>2)
		switch c & 3 {
		case 0:
			child := el(names[arg%len(names)])
			top.Children = append(top.Children, child)
			stack = append(stack, child)
		case 1:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		default:
			top.Children = append(top.Children, txt(strings.Repeat(string(rune('a'+arg%26)), arg)))
		}
	}
	return root
}

// editValues rewrites every value of the element at preorder position
// pick, modulo the tree's element count: value j keeps its length, in
// upper case, when bit j%8 of grow is clear, and gains a byte when it
// is set.
func editValues(root *xmlstream.Node, pick int, grow uint8) {
	var elements []*xmlstream.Node
	var walk func(*xmlstream.Node)
	walk = func(n *xmlstream.Node) {
		elements = append(elements, n)
		for _, c := range n.Children {
			if !c.IsText() {
				walk(c)
			}
		}
	}
	walk(root)
	j := 0
	for _, c := range elements[pick%len(elements)].Children {
		if !c.IsText() {
			continue
		}
		if grow>>(j%8)&1 != 0 {
			c.Text += "+"
		} else {
			c.Text = strings.ToUpper(c.Text)
		}
		j++
	}
}

// FuzzPlanReuse encodes a tree built from one input, then diffs a tree
// built from the other through the same plan, then that tree with the
// values of one element rewritten against the payload the second diff
// returned, which the plan copies from: each diff must equal one
// planned afresh, byte for byte and EncodeInfo included.
func FuzzPlanReuse(f *testing.F) {
	f.Add([]byte{0, 2, 8, 6, 1, 4, 10, 1, 1, 0, 2}, []byte{0, 6, 8, 10, 1, 4, 2, 1, 1, 0, 34}, uint8(8), uint16(0), uint8(0))
	f.Add([]byte{0, 4, 8, 1, 1}, []byte{0, 4, 1, 8, 1}, uint8(0), uint16(0), uint8(0))
	f.Add([]byte{0, 2, 1}, []byte{0, 0, 1}, uint8(3), uint16(0), uint8(0))
	// An edit in the first element under the root, one in the last
	// element, and a value grown by a byte that takes its element's
	// content (a value of 5 and the closing opcode) to MinSkipBytes 9.
	f.Add([]byte{0, 2, 1}, []byte{0, 10, 4, 6, 1, 8, 14, 1}, uint8(3), uint16(1), uint8(1))
	f.Add([]byte{0, 2, 1}, []byte{0, 10, 4, 6, 1, 8, 14, 1}, uint8(3), uint16(3), uint8(2))
	f.Add([]byte{0, 22, 1}, []byte{0, 22, 1, 4, 10, 1}, uint8(8), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, a, b []byte, minSkip uint8, pick uint16, grow uint8) {
		opts := EncodeOptions{DocID: "fuzz", Key: secure.KeyFromSeed("fuzz"), BlockPlain: 32, MinSkipBytes: 1 + int(minSkip%64)}
		first, second := fuzzTree(a), fuzzTree(b)
		c, _, err := Encode(first, opts)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := c.DecryptPayload(opts.Key)
		if err != nil {
			t.Fatal(err)
		}
		var plan Plan
		d, payload := diffThroughPlan(t, &plan, first, opts, &c.Header, payload, nil)
		d, payload = diffThroughPlan(t, &plan, second, opts, &d.Header, payload, nil)
		editValues(second, int(pick), grow)
		diffThroughPlan(t, &plan, second, opts, &d.Header, payload, nil)
	})
}
