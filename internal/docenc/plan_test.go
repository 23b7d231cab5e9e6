package docenc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/secure"
	"repro/internal/xmlstream"
)

func el(name string, children ...*xmlstream.Node) *xmlstream.Node {
	return &xmlstream.Node{Name: name, Children: children}
}

func txt(s string) *xmlstream.Node { return &xmlstream.Node{Text: s} }

// diffThroughPlan diffs tree against base twice, through plan and with
// no plan, fails unless the two agree on the header, every delta run,
// the returned payload and the EncodeInfo, and returns the delta and the
// payload: the next step's base.
func diffThroughPlan(t testing.TB, plan *Plan, tree *xmlstream.Node, opts EncodeOptions, base *Header, basePayload []byte) (*DeltaUpdate, []byte) {
	t.Helper()
	got, gotInfo, gotPayload, err := DiffEncodePayload(tree, opts, nil, plan, base, basePayload, nil)
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

// TestPlanReuseMatchesFreshPlan drives one plan through edits that keep
// the preorder sequence of element names but not the shape — a sibling
// nested under its predecessor and back, one tag renamed with every
// count kept, two differently named siblings swapped, a value turned
// into an element — and through changes of the index options. Each
// diff must equal one planned afresh, and the plan is kept exactly when
// the shape and the options are.
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
	if err := plan.size(steps[0].tree, opts); err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if s.edit != nil {
			s.edit(&opts)
		}
		dict := plan.dict
		d, next := diffThroughPlan(t, &plan, s.tree, opts, &base, payload)
		if reused := plan.dict == dict; reused != s.reuse {
			t.Fatalf("%s: plan kept %v, want %v", s.what, reused, s.reuse)
		}
		base, payload = d.Header, next
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

// FuzzPlanReuse encodes a tree built from one input, then diffs a tree
// built from the other through the same plan: the diff must equal one
// planned afresh, byte for byte and EncodeInfo included.
func FuzzPlanReuse(f *testing.F) {
	f.Add([]byte{0, 2, 8, 6, 1, 4, 10, 1, 1, 0, 2}, []byte{0, 6, 8, 10, 1, 4, 2, 1, 1, 0, 34}, uint8(8))
	f.Add([]byte{0, 4, 8, 1, 1}, []byte{0, 4, 1, 8, 1}, uint8(0))
	f.Add([]byte{0, 2, 1}, []byte{0, 0, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, a, b []byte, minSkip uint8) {
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
		d, payload := diffThroughPlan(t, &plan, first, opts, &c.Header, payload)
		diffThroughPlan(t, &plan, second, opts, &d.Header, payload)
	})
}
