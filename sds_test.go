package sds

import (
	"strings"
	"testing"
)

const testDoc = `
<folder>
  <patient id="p1">
    <name>Ann</name>
    <ssn>123-45-678</ssn>
    <visit><diagnosis>flu</diagnosis></visit>
  </patient>
  <patient id="p2">
    <name>Bob</name>
    <ssn>999-99-999</ssn>
    <visit><diagnosis>asthma</diagnosis></visit>
  </patient>
</folder>`

const testRules = `
subject nurse
doc folder
default +
- //ssn`

func TestFilterLibraryPath(t *testing.T) {
	doc, err := ParseXML([]byte(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := ParseRules(testRules)
	if err != nil {
		t.Fatal(err)
	}
	view, err := Filter(doc, rules, "")
	if err != nil {
		t.Fatal(err)
	}
	xml, err := SerializeXML(view, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(xml, "ssn") {
		t.Errorf("filtered view leaks ssn: %s", xml)
	}
	if !strings.Contains(xml, "Ann") || !strings.Contains(xml, "asthma") {
		t.Errorf("filtered view lost permitted content: %s", xml)
	}

	// With a query.
	view, err = Filter(doc, rules, `//patient[@id = "p2"]/name`)
	if err != nil {
		t.Fatal(err)
	}
	xml, _ = SerializeXML(view, "")
	if strings.Contains(xml, "Ann") || !strings.Contains(xml, "Bob") {
		t.Errorf("query view wrong: %s", xml)
	}
}

func TestFullCardPath(t *testing.T) {
	doc, err := ParseXML([]byte(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := ParseRules(testRules)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFromSeed("facade-test")
	store := NewMemStore()

	if err := Publish(store, doc, "folder", key); err != nil {
		t.Fatal(err)
	}
	if err := Grant(store, key, rules); err != nil {
		t.Fatal(err)
	}
	c := NewCard(EGate)
	if err := Provision(store, c, "folder", "nurse", key); err != nil {
		t.Fatal(err)
	}
	res, err := QueryCard(store, c, "nurse", "folder", "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.XML(), "ssn") {
		t.Error("card path leaks ssn")
	}
	// The card path and the library path must agree.
	libView, err := Filter(doc, rules, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tree().Equal(libView) {
		t.Error("card and library paths disagree")
	}
}

// TestRepublishTopLevel exercises the public update path: publish,
// delta re-publish, and a card query that sees the new version.
func TestRepublishTopLevel(t *testing.T) {
	store := NewMemStore()
	key := KeyFromSeed("sds-republish")
	v1, err := ParseXML([]byte(`<a><b>the first version body</b><c>constant tail text</c></a>`))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ParseXML([]byte(`<a><b>THE OTHER VERSION BODY</b><c>constant tail text</c></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if err := PublishStream(store, v1, "doc", key); err != nil {
		t.Fatal(err)
	}
	ri, err := Republish(store, v2, "doc", key)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Version != 1 {
		t.Fatalf("republished version %d, want 1", ri.Version)
	}
	rules, _ := ParseRules("subject u\ndefault +")
	rules.DocID = "doc"
	if err := Grant(store, key, rules); err != nil {
		t.Fatal(err)
	}
	c := NewCard(Modern)
	if err := Provision(store, c, "doc", "u", key); err != nil {
		t.Fatal(err)
	}
	res, err := QueryCard(store, c, "u", "doc", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || !strings.Contains(res.XML(), "THE OTHER VERSION BODY") {
		t.Fatalf("query did not see the republished version: v%d %q", res.Version, res.XML())
	}
}

func TestGrantRequiresDocID(t *testing.T) {
	rules, _ := ParseRules("subject u\ndefault +")
	if err := Grant(NewMemStore(), KeyFromSeed("k"), rules); err == nil {
		t.Error("Grant without DocID must fail")
	}
}

func TestFilterNothingVisible(t *testing.T) {
	doc, _ := ParseXML([]byte(`<a><b>x</b></a>`))
	rules, _ := ParseRules("subject u\ndefault -")
	view, err := Filter(doc, rules, "")
	if err != nil {
		t.Fatal(err)
	}
	if view != nil {
		t.Errorf("closed policy must yield nil, got %v", view)
	}
}

func TestFilterBadQuery(t *testing.T) {
	doc, _ := ParseXML([]byte(`<a/>`))
	rules, _ := ParseRules("subject u\ndefault +")
	if _, err := Filter(doc, rules, "not a query"); err == nil {
		t.Error("bad query accepted")
	}
}
