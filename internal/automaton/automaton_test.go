package automaton

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/tagdict"
	"repro/internal/xpath"
)

func dict(t *testing.T, tags ...string) *tagdict.Dict {
	t.Helper()
	d, err := tagdict.FromTags(tags)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compile(t *testing.T, expr string, d *tagdict.Dict) *Machine {
	t.Helper()
	m, err := Compile(xpath.MustParse(expr), d)
	if err != nil {
		t.Fatalf("Compile(%s): %v", expr, err)
	}
	return m
}

// TestPaperFigure2 reproduces the paper's Figure 2: the automaton for
// R: ⊕ //b[c]/d has a navigational path (s0 self-looping on //, then b,
// then d = NavFinal) and a predicate path (c) anchored at the b state.
func TestPaperFigure2(t *testing.T) {
	d := dict(t, "a", "b", "c", "d")
	m := compile(t, "//b[c]/d", d)

	s0 := m.States[0]
	if !s0.SelfLoop {
		t.Error("the '//' start state must self-loop")
	}
	if len(s0.Trans) != 1 || s0.Trans[0].Kind != Exact || s0.Trans[0].Code != d.Code("b") {
		t.Fatalf("s0 transitions wrong: %+v", s0.Trans)
	}
	bState := m.States[s0.Trans[0].Target]
	if len(bState.StartPreds) != 1 {
		t.Fatalf("the b state must anchor one predicate, got %d", len(bState.StartPreds))
	}
	if len(bState.Trans) != 1 || bState.Trans[0].Code != d.Code("d") {
		t.Fatalf("b state transitions wrong: %+v", bState.Trans)
	}
	dState := m.States[bState.Trans[0].Target]
	if !dState.NavFinal {
		t.Error("the d state must be NavFinal")
	}
	if len(m.Preds) != 1 {
		t.Fatalf("predicate chains = %d, want 1", len(m.Preds))
	}
	pred := m.Preds[0]
	predStart := m.States[pred.Start]
	if len(predStart.Trans) != 1 || predStart.Trans[0].Code != d.Code("c") {
		t.Fatalf("predicate start transitions wrong: %+v", predStart.Trans)
	}
	if got := m.States[pred.Final].PredFinal; got != 0 {
		t.Errorf("predicate final marks pred %d, want 0", got)
	}
}

func TestWildcardsAndAttrs(t *testing.T) {
	d := dict(t, "a", "@id")
	m := compile(t, "/a/*/@*", d)
	if m.States[0].SelfLoop {
		t.Error("child-axis start must not self-loop")
	}
	tr1 := m.States[m.States[0].Trans[0].Target].Trans[0]
	if tr1.Kind != WildElem {
		t.Errorf("second step must be WildElem, got %v", tr1.Kind)
	}
	tr2 := m.States[tr1.Target].Trans[0]
	if tr2.Kind != WildAttr {
		t.Errorf("third step must be WildAttr, got %v", tr2.Kind)
	}
}

func TestUnknownTagCompilesToNever(t *testing.T) {
	d := dict(t, "a")
	m := compile(t, "/a/nosuch", d)
	aState := m.States[m.States[0].Trans[0].Target]
	if aState.Trans[0].Kind != Never {
		t.Errorf("unknown tag must compile to Never, got %v", aState.Trans[0].Kind)
	}
	// The start's requirement must be impossible.
	if m.States[0].FireReqs[0].Possible {
		t.Error("a chain through Never must be impossible")
	}
}

func TestFireReqsChain(t *testing.T) {
	d := dict(t, "a", "b", "c")
	m := compile(t, "/a//b/c", d)
	req := m.States[0].FireReqs[0]
	if !req.Possible {
		t.Fatal("chain must be possible")
	}
	for _, tag := range []string{"a", "b", "c"} {
		if !req.Codes.Has(d.Code(tag)) {
			t.Errorf("start requirement missing %s", tag)
		}
	}
	// After matching a, only b and c remain.
	aState := m.States[m.States[0].Trans[0].Target]
	req2 := aState.FireReqs[0]
	if req2.Codes.Has(d.Code("a")) {
		t.Error("a must not be required after it matched")
	}
	if !req2.Codes.Has(d.Code("b")) || !req2.Codes.Has(d.Code("c")) {
		t.Error("b and c still required")
	}
}

func TestFireReqsIgnoreWildcards(t *testing.T) {
	d := dict(t, "a", "b")
	m := compile(t, "/a/*/b", d)
	req := m.States[0].FireReqs[0]
	if req.Codes.Count() != 2 {
		t.Errorf("wildcards must not add requirements: %v", req.Codes)
	}
}

func TestNestedPredCompilation(t *testing.T) {
	d := dict(t, "a", "b", "c")
	m := compile(t, "/a[b[c]]", d)
	if len(m.Preds) != 2 {
		t.Fatalf("nested predicate must flatten to 2 chains, got %d", len(m.Preds))
	}
	// The outer pred's chain state for b anchors the inner pred.
	outer := m.Preds[0]
	bState := m.States[outer.Final]
	if len(bState.StartPreds) != 1 {
		t.Errorf("outer final must anchor the nested predicate")
	}
}

func TestDotComparePred(t *testing.T) {
	d := dict(t, "k")
	m := compile(t, `//k[. = "on"]`, d)
	if len(m.Preds) != 1 {
		t.Fatal("one predicate expected")
	}
	p := m.Preds[0]
	if p.Start != p.Final {
		t.Error("'.' predicate must be a single state")
	}
	st := m.States[p.Final]
	if st.Cmp != xpath.Eq || st.CmpValue != "on" {
		t.Errorf("comparison not recorded: %+v", st)
	}
}

func TestValuePredOnPath(t *testing.T) {
	d := dict(t, "a", "b")
	m := compile(t, `/a[b != "x"]`, d)
	final := m.States[m.Preds[0].Final]
	if final.Cmp != xpath.Neq || final.CmpValue != "x" {
		t.Errorf("Neq comparison not recorded: %+v", final)
	}
}

func TestMemBytesPositive(t *testing.T) {
	d := dict(t, "a", "b", "c")
	small := compile(t, "/a", d)
	big := compile(t, "//a[b]//c[. = \"v\"]", d)
	if small.MemBytes() <= 0 || big.MemBytes() <= small.MemBytes() {
		t.Errorf("MemBytes implausible: small=%d big=%d", small.MemBytes(), big.MemBytes())
	}
}

func TestDumpAndDOT(t *testing.T) {
	d := dict(t, "a", "b", "c", "d")
	m := compile(t, "//b[c]/d", d)
	dump := m.Dump(d)
	for _, want := range []string{"NAV-FINAL", "PRED-FINAL", "start", "--b-->"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump lacks %q:\n%s", want, dump)
		}
	}
	dot := m.DOT(d, "r1")
	for _, want := range []string{"digraph", "doublecircle", "gray80", "rankdir=LR"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT lacks %q", want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	d := dict(t, "a")
	if _, err := Compile(nil, d); err == nil {
		t.Error("nil path accepted")
	}
	if _, err := Compile(&xpath.Path{}, d); err == nil {
		t.Error("empty path accepted")
	}
}

// sameMachine reports the first difference between two machines, field
// by field down to every requirement's tag set. An empty list and a nil
// one are the same list: a re-armed machine keeps the storage a fresh one
// never had.
func sameMachine(got, want *Machine) string {
	switch {
	case got.Source != want.Source:
		return "source"
	case got.Universe != want.Universe:
		return fmt.Sprintf("universe %d, want %d", got.Universe, want.Universe)
	case !slices.EqualFunc(got.Preds, want.Preds, func(a, b PredInfo) bool { return reflect.DeepEqual(a, b) }):
		return fmt.Sprintf("predicates %+v, want %+v", got.Preds, want.Preds)
	case len(got.States) != len(want.States):
		return fmt.Sprintf("%d states, want %d", len(got.States), len(want.States))
	case got.MemBytes() != want.MemBytes():
		return fmt.Sprintf("MemBytes %d, want %d", got.MemBytes(), want.MemBytes())
	}
	sameReq := func(a, b FireReq) bool { return a.Possible == b.Possible && a.Codes.Equal(b.Codes) }
	for i := range want.States {
		g, w := &got.States[i], &want.States[i]
		if g.SelfLoop != w.SelfLoop || g.NavFinal != w.NavFinal || g.PredFinal != w.PredFinal ||
			g.Cmp != w.Cmp || g.CmpValue != w.CmpValue ||
			!slices.Equal(g.Trans, w.Trans) || !slices.Equal(g.StartPreds, w.StartPreds) ||
			!slices.EqualFunc(g.FireReqs, w.FireReqs, sameReq) {
			return fmt.Sprintf("state %d: %+v, want %+v", i, *g, *w)
		}
	}
	return ""
}

// TestCompileIntoMatchesCompile: compiling Q into a machine that held P,
// compiled against another dictionary, is compiling Q afresh — states,
// transitions, predicate chains, every requirement set and the RAM
// charge — for every pair of a spread of rule shapes, and after a
// compilation that failed half way.
func TestCompileIntoMatchesCompile(t *testing.T) {
	exprs := []string{
		"/a", "//b[c]/d", "/a/b/c/d/e", "//*[@id]", "//a[b/c = \"x\"][d]/e",
		"/a[. = \"v\"]", "//missing/a", "/a//b//c[@*]", "//e[d[c[b]]]",
		"/a/*/b[c != \"y\"]//d",
	}
	dicts := []*tagdict.Dict{
		dict(t, "a", "b", "c", "d", "e", "@id"),
		dict(t, "e", "d", "c"),
		dict(t, "@id", "x", "y", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m",
			"n", "o", "p", "q", "r", "s", "t", "u", "v", "w", "z", "aa", "bb", "cc", "dd", "ee",
			"ff", "gg", "hh", "ii", "jj", "kk", "ll", "mm", "nn", "oo", "pp", "qq", "rr", "ss",
			"tt", "uu", "vv", "ww", "xx", "yy", "zz", "a1", "b1", "c1", "d1", "e1", "f1", "g1",
			"h1", "i1", "j1", "k1", "l1", "m1"), // a universe past one word
		tagdict.New(),
	}
	bad := &xpath.Path{Steps: []xpath.Step{{Axis: xpath.Child, Name: "a"}, {Axis: xpath.Child}}}
	var m Machine
	for i, p := range exprs {
		for j, q := range exprs {
			dp, dq := dicts[i%len(dicts)], dicts[(i+j+1)%len(dicts)]
			if _, err := CompileInto(&m, xpath.MustParse(p), dp); err != nil {
				t.Fatal(err)
			}
			if j%3 == 0 {
				if _, err := CompileInto(&m, bad, dq); err == nil {
					t.Fatal("a step with no node test compiled")
				}
			}
			qp := xpath.MustParse(q)
			got, err := CompileInto(&m, qp, dq)
			if err != nil {
				t.Fatal(err)
			}
			if got != &m {
				t.Fatal("CompileInto returned another machine")
			}
			want, err := Compile(qp, dq)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameMachine(got, want); diff != "" {
				t.Fatalf("%s then %s: %s", p, q, diff)
			}
		}
	}
}
