package core

import (
	"testing"

	"repro/internal/accessrule"
	"repro/internal/mem"
	"repro/internal/tagdict"
	"repro/internal/workload"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// countVisible fingerprints a view: delivered text bytes + element count.
func countVisible(n *xmlstream.Node) (texts int, elems int) {
	if n == nil {
		return 0, 0
	}
	texts = len(n.TextContent())
	var walk func(m *xmlstream.Node)
	walk = func(m *xmlstream.Node) {
		if !m.IsText() {
			elems++
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return texts, elems
}

// visibleText concatenates all delivered text in document order. Pruning
// elements deletes segments but never reorders, so a narrower view's text
// is always a (character) subsequence of a wider view's text — the
// monotonicity invariant the properties below check. (Plain multiset
// comparison would be confused by canonicalization: denying an element
// between two text nodes merges them into one.)
func visibleText(n *xmlstream.Node) string {
	if n == nil {
		return ""
	}
	return n.TextContent()
}

// isSubsequence reports whether small can be obtained from big by
// deleting characters.
func isSubsequence(small, big string) bool {
	j := 0
	for i := 0; i < len(small); i++ {
		for {
			if j >= len(big) {
				return false
			}
			if big[j] == small[i] {
				j++
				break
			}
			j++
		}
	}
	return true
}

// TestPropertyGrantAllIsIdentity: an open default with no rules delivers
// the document unchanged.
func TestPropertyGrantAllIsIdentity(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 60, MaxDepth: 6, MaxFanout: 4, AttrProb: 0.3, TextProb: 0.7,
		})
		rs := workload.GrantAll("u")
		got, _, err := Filter(doc.Events(), rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(doc.Canonicalize()) {
			t.Fatalf("seed %d: grant-all changed the document", seed)
		}
	}
}

// TestPropertyDenyAllIsEmpty: a closed default with no rules delivers
// nothing.
func TestPropertyDenyAllIsEmpty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 60, MaxDepth: 6, MaxFanout: 4, TextProb: 0.7,
		})
		rs := &accessrule.RuleSet{Subject: "u", DefaultSign: accessrule.Deny}
		got, _, err := Filter(doc.Events(), rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			t.Fatalf("seed %d: deny-all delivered content", seed)
		}
	}
}

// TestPropertyPositiveRuleMonotone: adding a positive rule never shrinks
// the visible content (direct positives can only flip inherited denials).
func TestPropertyPositiveRuleMonotone(t *testing.T) {
	tags := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 40; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 50, MaxDepth: 6, MaxFanout: 4, TextProb: 0.7, Tags: tags,
		})
		base := workload.RandomRuleSet("u", workload.RuleConfig{
			Seed: seed, Count: 3, Tags: tags, MaxSteps: 3, DescProb: 0.4, PredProb: 0.3, NegProb: 0.5,
		})
		extra := workload.RandomRuleSet("u", workload.RuleConfig{
			Seed: seed + 77, Count: 1, Tags: tags, MaxSteps: 3, DescProb: 0.5,
		})
		widened := &accessrule.RuleSet{
			Subject:     base.Subject,
			DefaultSign: base.DefaultSign,
			Rules: append(append([]accessrule.Rule{}, base.Rules...), accessrule.Rule{
				ID: "extra", Sign: accessrule.Permit, Object: extra.Rules[0].Object,
			}),
		}

		before, _, err := Filter(doc.Events(), base, nil)
		if err != nil {
			t.Fatal(err)
		}
		after, _, err := Filter(doc.Events(), widened, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !isSubsequence(visibleText(before), visibleText(after)) {
			t.Fatalf("seed %d: adding %s SHRANK the view\nbase:\n%s", seed, widened.Rules[len(widened.Rules)-1], base)
		}
	}
}

// TestPropertyNegativeRuleMonotone: adding a negative rule never grows
// the visible content.
func TestPropertyNegativeRuleMonotone(t *testing.T) {
	tags := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 40; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 50, MaxDepth: 6, MaxFanout: 4, TextProb: 0.7, Tags: tags,
		})
		base := workload.RandomRuleSet("u", workload.RuleConfig{
			Seed: seed, Count: 3, Tags: tags, MaxSteps: 3, DescProb: 0.4, PredProb: 0.3, NegProb: 0.3,
		})
		extra := workload.RandomRuleSet("u", workload.RuleConfig{
			Seed: seed + 99, Count: 1, Tags: tags, MaxSteps: 3, DescProb: 0.5,
		})
		narrowed := &accessrule.RuleSet{
			Subject:     base.Subject,
			DefaultSign: base.DefaultSign,
			Rules: append(append([]accessrule.Rule{}, base.Rules...), accessrule.Rule{
				ID: "extra", Sign: accessrule.Deny, Object: extra.Rules[0].Object,
			}),
		}

		before, _, err := Filter(doc.Events(), base, nil)
		if err != nil {
			t.Fatal(err)
		}
		after, _, err := Filter(doc.Events(), narrowed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !isSubsequence(visibleText(after), visibleText(before)) {
			t.Fatalf("seed %d: adding a denial GREW the view", seed)
		}
	}
}

// TestPropertyQueryNarrows: a query never delivers more than the full
// authorized view.
func TestPropertyQueryNarrows(t *testing.T) {
	tags := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 40; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 50, MaxDepth: 6, MaxFanout: 4, TextProb: 0.7, Tags: tags,
		})
		rs := workload.RandomRuleSet("u", workload.RuleConfig{
			Seed: seed, Count: 3, Tags: tags, MaxSteps: 3, DescProb: 0.4, NegProb: 0.3,
			DefaultSign: accessrule.Permit,
		})
		q := workload.RandomQuery(workload.RuleConfig{Seed: seed + 5, Tags: tags, MaxSteps: 3, DescProb: 0.5})

		full, _, err := Filter(doc.Events(), rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		narrowed, _, err := Filter(doc.Events(), rs, q)
		if err != nil {
			t.Fatal(err)
		}
		if !isSubsequence(visibleText(narrowed), visibleText(full)) {
			t.Fatalf("seed %d: query %s delivered content outside the authorized view", seed, q)
		}
	}
}

// TestPropertyViewIsFixpoint: filtering an authorized view again under
// the same PURELY STRUCTURAL rule set returns the same view. (Rules with
// value predicates are excluded: the first pass may hide the text a
// predicate matched on, legitimately changing the second pass.)
func TestPropertyViewIsFixpoint(t *testing.T) {
	tags := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 40; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 50, MaxDepth: 6, MaxFanout: 4, TextProb: 0.7, Tags: tags,
		})
		rs := workload.RandomRuleSet("u", workload.RuleConfig{
			Seed: seed, Count: 4, Tags: tags, MaxSteps: 3, DescProb: 0.4,
			NegProb: 0.4, DefaultSign: accessrule.Permit,
		})
		once, _, err := Filter(doc.Events(), rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if once == nil {
			continue
		}
		twice, _, err := Filter(once.Events(), rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The second pass may prune structural tags that lost their
		// delivered descendants... which cannot happen: structural tags in
		// `once` exist because a delivered descendant exists, and that
		// descendant stays delivered under the same structural rules. So
		// equality must hold.
		if !once.Equal(twice) {
			a, _ := countVisible(once)
			b, _ := countVisible(twice)
			t.Fatalf("seed %d: refiltering changed the view (%d -> %d text bytes)\nrules:\n%s",
				seed, a, b, rs)
		}
	}
}

// TestPropertyStatsConsistent: emitted counts never exceed input counts,
// peak figures are sane.
func TestPropertyStatsConsistent(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 80, MaxDepth: 7, MaxFanout: 4, TextProb: 0.7, AttrProb: 0.3,
		})
		rs := workload.RandomRuleSet("u", workload.RuleConfig{
			Seed: seed, Count: 5, MaxSteps: 4, DescProb: 0.4, PredProb: 0.4, NegProb: 0.4,
		})
		_, stats, err := Filter(doc.Events(), rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.EmittedOpens > stats.Opens || stats.EmittedCloses > stats.Closes {
			t.Fatalf("seed %d: emitted more than consumed: %+v", seed, stats)
		}
		if stats.EmittedOpens != stats.EmittedCloses {
			t.Fatalf("seed %d: unbalanced emission: %+v", seed, stats)
		}
		if stats.Opens != stats.Closes {
			t.Fatalf("seed %d: unbalanced input: %+v", seed, stats)
		}
		if stats.MaxDepth <= 0 || stats.EntriesPeak < 0 {
			t.Fatalf("seed %d: implausible stats: %+v", seed, stats)
		}
	}
}

// checkViewForms checks the two forms of one view against each other
// and against want: the tree is want, and the one-pass rendering is what
// serializing that tree's events gives, byte for byte.
func checkViewForms(t *testing.T, v *View, want *xmlstream.Node) {
	t.Helper()
	tree := v.Tree()
	if !tree.Equal(want) {
		t.Fatalf("view's tree diverges from the oracle\ngot:  %s\nwant: %s", render(tree), render(want))
	}
	for _, opts := range []xmlstream.WriterOptions{{Indent: "  "}, {}} {
		got, err := v.AppendXML([]byte("frame-header"), opts)
		if err != nil {
			t.Fatalf("AppendXML: %v", err)
		}
		ref := ""
		if tree != nil {
			if ref, err = xmlstream.Serialize(tree.Events(), opts); err != nil {
				t.Fatalf("Serialize: %v", err)
			}
		}
		if string(got) != "frame-header"+ref {
			t.Fatalf("one-pass rendering differs from Serialize(Tree().Events()) at indent %q\ngot:  %q\nwant: %q",
				opts.Indent, got[len("frame-header"):], ref)
		}
	}
}

// TestPropertyViewFormsAgree: for generated document × rules × query,
// the view's tree is the DOM oracle's authorized view and its one-pass
// XML is the serialization of that tree. The rule sets carry predicates,
// so views assembled from pending groups are among them; the cases of
// TestAssemblerPruning pin each resolution by hand.
func TestPropertyViewFormsAgree(t *testing.T) {
	tags := []string{"a", "b", "c", "d", "e"}
	groups := 0
	for seed := int64(0); seed < 300; seed++ {
		doc := workload.RandomDocument(workload.TreeConfig{
			Seed: seed, Elements: 30 + int(seed%50), MaxDepth: 6, MaxFanout: 4,
			AttrProb: 0.3, TextProb: 0.6, Tags: tags,
		})
		rcfg := workload.RuleConfig{
			Seed: seed + 1000, Count: 1 + int(seed%6), Tags: append(tags, "@a", "@b"),
			MaxSteps: 4, DescProb: 0.4, WildProb: 0.15, PredProb: 0.5, ValuePredProb: 0.3, NegProb: 0.4,
		}
		if seed%3 == 0 {
			rcfg.DefaultSign = accessrule.Permit
		}
		rs := workload.RandomRuleSet("tester", rcfg)
		var query *xpath.Path
		if seed%2 == 1 {
			query = workload.RandomQuery(workload.RuleConfig{
				Seed: seed + 2000, Tags: rcfg.Tags, MaxSteps: 3, DescProb: 0.5, PredProb: 0.3,
			})
		}
		v, stats, err := filterView(doc.Events(), rs, query, mem.Nop{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		groups += stats.GroupsCreated
		checkViewForms(t, v, accessrule.ApplyTreeQuery(doc, rs, query))
	}
	if groups == 0 {
		t.Fatal("no generated case went through a pending group")
	}
}

// TestAssemblerPruning feeds the assembler the card protocol by hand and
// checks both forms of the view against trees written out here: the
// pruning rules one at a time, each pending resolution both ways.
func TestAssemblerPruning(t *testing.T) {
	dict := tagdict.New()
	code := func(name string) tagdict.Code {
		c, err := dict.Add(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	r, a, b, at := code("r"), code("a"), code("b"), code("@k")
	el := func(name string, children ...*xmlstream.Node) *xmlstream.Node {
		return &xmlstream.Node{Name: name, Children: children}
	}
	txt := func(s string) *xmlstream.Node { return &xmlstream.Node{Text: s} }

	type step func(*Assembler) error
	open := func(c tagdict.Code, m Mode, g GroupID) step {
		return func(asm *Assembler) error { return asm.EmitOpen(c, m, g) }
	}
	val := func(s string, m Mode, g GroupID) step {
		return func(asm *Assembler) error { return asm.EmitValue([]byte(s), m, g) }
	}
	cl := func(asm *Assembler) error { return asm.EmitClose(ModeDeliver, 0) }
	resolve := func(g GroupID, deliver bool) step {
		return func(asm *Assembler) error { return asm.ResolveGroup(g, deliver) }
	}

	cases := []struct {
		name  string
		steps []step
		want  *xmlstream.Node
	}{
		{"delivered content under structural tags",
			[]step{open(r, ModeStructure, 0), open(a, ModeStructure, 0), open(b, ModeDeliver, 0), val("x", ModeDeliver, 0), cl, cl, open(a, ModeStructure, 0), cl, cl},
			el("r", el("a", el("b", txt("x"))))},
		{"nothing delivered",
			[]step{open(r, ModeStructure, 0), open(a, ModeStructure, 0), cl, cl},
			nil},
		{"pending group delivered",
			[]step{open(r, ModeStructure, 0), open(a, ModePending, 1), val("x", ModePending, 1), cl, resolve(1, true), cl},
			el("r", el("a", txt("x")))},
		{"pending group discarded",
			[]step{open(r, ModeDeliver, 0), open(a, ModePending, 1), val("x", ModePending, 1), cl, resolve(1, false), cl},
			el("r")},
		{"discarded group degrades to structure around delivered content",
			[]step{open(r, ModeStructure, 0), open(a, ModePending, 1), val("x", ModePending, 1), open(b, ModeDeliver, 0), cl, cl, resolve(1, false), cl},
			el("r", el("a", el("b")))},
		{"resolution may precede later members of the group",
			[]step{open(r, ModeStructure, 0), resolve(2, true), open(a, ModePending, 2), cl, cl},
			el("r", el("a"))},
		{"chunks of one value merge",
			[]step{open(r, ModeDeliver, 0), val("ab", ModeDeliver, 0), val("cd", ModeDeliver, 0), val("", ModeDeliver, 0), cl},
			el("r", txt("abcd"))},
		{"adjacent text of different groups, both delivered",
			[]step{open(r, ModeDeliver, 0), val("x", ModePending, 1), val("y", ModePending, 2), val("z", ModeDeliver, 0), cl, resolve(1, true), resolve(2, true)},
			el("r", txt("xyz"))},
		{"adjacent text of different groups, the middle one discarded",
			[]step{open(r, ModeDeliver, 0), val("x", ModePending, 1), val("y", ModePending, 2), val("z", ModePending, 1), cl, resolve(1, true), resolve(2, false)},
			el("r", txt("xz"))},
		{"text made adjacent by a pruned element merges",
			[]step{open(r, ModeDeliver, 0), val("x", ModeDeliver, 0), open(a, ModeStructure, 0), cl, val("y", ModeDeliver, 0), cl},
			el("r", txt("xy"))},
		{"an empty delivered text keeps its structural parent",
			[]step{open(r, ModeStructure, 0), open(a, ModeStructure, 0), val("", ModeDeliver, 0), cl, open(b, ModeStructure, 0), cl, cl},
			el("r", el("a"))},
		{"an empty discarded text does not",
			[]step{open(r, ModeStructure, 0), open(a, ModeStructure, 0), val("", ModePending, 1), cl, cl, resolve(1, false)},
			nil},
		{"attribute delivered",
			[]step{open(r, ModeStructure, 0), open(at, ModeDeliver, 0), val("v<\"", ModeDeliver, 0), cl, cl},
			el("r", el("@k", txt("v<\"")))},
		{"attribute is all or nothing: content under a structural attribute is dropped",
			[]step{open(r, ModeDeliver, 0), open(at, ModeStructure, 0), val("v", ModeDeliver, 0), cl, cl},
			el("r")},
		{"attribute does not keep its element alive unless delivered",
			[]step{open(r, ModeStructure, 0), open(a, ModeStructure, 0), open(at, ModePending, 1), val("v", ModePending, 1), cl, cl, cl, resolve(1, false)},
			nil},
		{"delivered attribute with an empty value",
			[]step{open(r, ModeStructure, 0), open(at, ModeDeliver, 0), cl, open(a, ModeDeliver, 0), cl, cl},
			el("r", el("@k"), el("a"))},
	}
	asm := NewAssembler(dict)
	for _, c := range cases {
		asm.Reset() // one assembler throughout: reuse must leave nothing behind
		for i, s := range c.steps {
			if err := s(asm); err != nil {
				t.Fatalf("%s: step %d: %v", c.name, i, err)
			}
		}
		v, err := asm.Finish()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Run(c.name, func(t *testing.T) { checkViewForms(t, v, c.want) })
	}
}

// TestAssemblerRejectsProtocolViolations: a stream the card protocol
// cannot produce is an error, at the event or at Finish.
func TestAssemblerRejectsProtocolViolations(t *testing.T) {
	dict := tagdict.New()
	r, _ := dict.Add("r")
	cases := map[string]func(*Assembler) error{
		"value outside any element": func(a *Assembler) error { return a.EmitValue([]byte("x"), ModeDeliver, 0) },
		"unbalanced close":          func(a *Assembler) error { return a.EmitClose(ModeDeliver, 0) },
		"second root": func(a *Assembler) error {
			_ = a.EmitOpen(r, ModeDeliver, 0)
			_ = a.EmitClose(ModeDeliver, 0)
			return a.EmitOpen(r, ModeDeliver, 0)
		},
		"group resolved twice": func(a *Assembler) error {
			_ = a.ResolveGroup(1, true)
			return a.ResolveGroup(1, false)
		},
		"unclosed element": func(a *Assembler) error {
			_ = a.EmitOpen(r, ModeDeliver, 0)
			_, err := a.Finish()
			return err
		},
		"group never resolved": func(a *Assembler) error {
			_ = a.EmitOpen(r, ModePending, 7)
			_ = a.EmitClose(ModePending, 7)
			_, err := a.Finish()
			return err
		},
	}
	for name, f := range cases {
		a := NewAssembler(dict)
		if err := f(a); err == nil {
			t.Errorf("%s: accepted", name)
		} else if _, ferr := a.Finish(); ferr == nil {
			t.Errorf("%s: Finish succeeded after %v", name, err)
		}
	}
}
