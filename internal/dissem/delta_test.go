package dissem

import (
	"strings"
	"testing"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// deltaDoc builds a document with a small authorized head and a bulky
// tail subtree, so a subscriber restricted to the head skips the tail.
func deltaDoc(tailText func(i int) string) *xmlstream.Node {
	root := &xmlstream.Node{Name: "doc"}
	keep := &xmlstream.Node{Name: "keep"}
	for i := 0; i < 4; i++ {
		keep.Children = append(keep.Children, &xmlstream.Node{Name: "item",
			Children: []*xmlstream.Node{{Text: "head-content-stays-put"}}})
	}
	bulky := &xmlstream.Node{Name: "bulky"}
	for i := 0; i < 40; i++ {
		bulky.Children = append(bulky.Children, &xmlstream.Node{Name: "slab",
			Children: []*xmlstream.Node{{Text: tailText(i)}}})
	}
	// A constant trailer keeps the document's final blocks (which every
	// card consumes: the root's close record lives there) out of any
	// interior delta.
	trailer := &xmlstream.Node{Name: "trailer"}
	for i := 0; i < 8; i++ {
		trailer.Children = append(trailer.Children, &xmlstream.Node{Name: "pad",
			Children: []*xmlstream.Node{{Text: "constant-trailer-padding-text"}}})
	}
	root.Children = []*xmlstream.Node{keep, bulky, trailer}
	return root
}

func deltaSubscriber(t *testing.T, name, rules string, key secure.DocKey) *Subscriber {
	t.Helper()
	c := card.New(card.Modern)
	if err := c.PutKey("delta-doc", key); err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules(rules)
	rs.DocID = "delta-doc"
	if err := c.PutRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	return NewSubscriber(name, c, nil, soe.Options{})
}

// serialized is a reception's view as text ("" for an empty view).
func serialized(t *testing.T, r *Reception) string {
	t.Helper()
	if r.Tree == nil {
		return ""
	}
	out, err := xmlstream.Serialize(r.Tree.Events(), xmlstream.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rebroadcast is one v1 → v2 push to two standing subscribers, a
// head-only one and an all-access one. After v1 the head-only
// subscriber's rules or query may change; v2 is the delta-applied
// container, pushed through Broadcast. Each card evaluates v2 under what
// it holds now, so each reception must equal a fresh subscriber's that
// holds the same rules and query: same view, same card traffic, same
// card work.
type rebroadcast struct {
	tail  func(i int) string // v2's tail text
	rules string             // the head-only subscriber's rule set after v1 ("" keeps head-only)
	query string             // its standing query after v1 ("" = none)
	items int                // <item>s in its v2 view
}

const (
	headOnlyRules  = "subject s\ndefault -\n+ /doc/keep"
	allAccessRules = "subject s\ndefault +"
)

func v1Tail(int) string { return "tail-segment-payload-contents" }

// interiorTail is an interior tail edit: no block the head-only card
// consumed changes.
func interiorTail(i int) string {
	if i >= 10 && i < 30 {
		return "TAIL-SEGMENT-PAYLOAD-CHANGED!"
	}
	return v1Tail(i)
}

// run pushes v1 then v2 and checks both standing receptions of v2
// against fresh ones. It returns the delta v2 was built from.
func (tc rebroadcast) run(t *testing.T) *docenc.DeltaUpdate {
	t.Helper()
	key := secure.KeyFromSeed("rebroadcast")
	opts := docenc.EncodeOptions{DocID: "delta-doc", Key: key, BlockPlain: 64, MinSkipBytes: 32}
	v1, _, err := docenc.Encode(deltaDoc(v1Tail), opts)
	if err != nil {
		t.Fatal(err)
	}
	delta, _, err := docenc.DiffEncode(deltaDoc(tc.tail), opts, v1)
	if err != nil {
		t.Fatal(err)
	}
	if delta.ChangedBlocks == 0 {
		t.Fatal("v2 changes no block")
	}
	v2, err := delta.Apply(v1)
	if err != nil {
		t.Fatal(err)
	}

	headOnly := deltaSubscriber(t, "head-only", headOnlyRules, key)
	allAccess := deltaSubscriber(t, "all-access", allAccessRules, key)
	standing := []*Subscriber{headOnly, allAccess}
	first, err := Broadcast(v1, "s", standing)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].BlocksForwarded >= first[1].BlocksForwarded {
		t.Fatalf("head-only forwarded %d blocks, all-access %d: the skip premise is broken",
			first[0].BlocksForwarded, first[1].BlocksForwarded)
	}

	current := headOnlyRules
	if tc.rules != "" {
		current = tc.rules
		rs := workload.MustParseRules(tc.rules)
		rs.DocID, rs.Version = "delta-doc", 2
		if err := headOnly.Card.PutRuleSet(rs); err != nil {
			t.Fatal(err)
		}
	}
	fresh := []*Subscriber{
		deltaSubscriber(t, "head-only", current, key),
		deltaSubscriber(t, "all-access", allAccessRules, key),
	}
	if tc.query != "" {
		headOnly.Query = xpath.MustParse(tc.query)
		fresh[0].Query = headOnly.Query
	}

	got, err := Broadcast(v2, "s", standing)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Broadcast(v2, "s", fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		g, w := got[i], want[i]
		if gs, ws := serialized(t, g), serialized(t, w); gs != ws {
			t.Fatalf("standing subscriber %s's view differs from a fresh one's:\ngot:  %q\nwant: %q", g.Subscriber, gs, ws)
		}
		if g.BlocksForwarded != w.BlocksForwarded || g.Meter != w.Meter {
			t.Fatalf("subscriber %s's reception differs: forwarded %d vs %d, meter %+v vs %+v",
				g.Subscriber, g.BlocksForwarded, w.BlocksForwarded, g.Meter, w.Meter)
		}
	}
	if n := strings.Count(serialized(t, got[0]), "<item>"); n != tc.items {
		t.Fatalf("head-only v2 view holds %d <item>s, want %d", n, tc.items)
	}
	return delta
}

// TestDeltaBroadcastReuseAndRerun: a tail-only mutation yields a delta
// that reuses most of v1's blocks; pushed through Broadcast, both
// standing subscribers rerun their cards over the delta-applied v2 and
// match a fresh broadcast of it.
func TestDeltaBroadcastReuseAndRerun(t *testing.T) {
	delta := rebroadcast{tail: interiorTail, items: 4}.run(t)
	if delta.ChangedBlocks == delta.TotalBlocks {
		t.Fatalf("degenerate delta: %d/%d", delta.ChangedBlocks, delta.TotalBlocks)
	}
}

// TestDeltaBroadcastGeometryChange: a payload-length change moves the
// geometry of every later block; the standing subscribers still match a
// fresh broadcast of v2.
func TestDeltaBroadcastGeometryChange(t *testing.T) {
	rebroadcast{tail: func(int) string { return "tail-grew-longer-this-time-around" }, items: 4}.run(t)
}

// TestRebroadcastFollowsRightsChanges: the head-only subscriber's rights
// or query change between v1 and v2, and its reception of v2 follows
// what its card holds now.
func TestRebroadcastFollowsRightsChanges(t *testing.T) {
	for _, tc := range []struct {
		name string
		rebroadcast
	}{
		{"unchanged", rebroadcast{tail: interiorTail, items: 4}},
		{"revoked", rebroadcast{tail: interiorTail, rules: "subject s\ndefault -", items: 0}},
		{"granted", rebroadcast{tail: interiorTail, rules: allAccessRules, items: 4}},
		{"query-narrowed", rebroadcast{tail: interiorTail, query: "/doc/trailer", items: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t) })
	}
}

// TestBroadcastErrorNamesSubscriber: a failing subscriber is named in
// the propagated error even among healthy peers.
func TestBroadcastErrorNamesSubscriber(t *testing.T) {
	key := secure.KeyFromSeed("named")
	opts := docenc.EncodeOptions{DocID: "delta-doc", Key: key, BlockPlain: 64, MinSkipBytes: 32}
	container, _, err := docenc.Encode(deltaDoc(func(int) string { return "x-content-x" }), opts)
	if err != nil {
		t.Fatal(err)
	}
	good := deltaSubscriber(t, "good", "subject s\ndefault +", key)
	// The bad subscriber's card lacks key and rules: its session refuses
	// to open.
	bad := NewSubscriber("the-broken-one", card.New(card.Modern), nil, soe.Options{})
	_, err = Broadcast(container, "s", []*Subscriber{good, bad})
	if err == nil {
		t.Fatal("broadcast with an unprovisioned card succeeded")
	}
	if !strings.Contains(err.Error(), "the-broken-one") {
		t.Fatalf("error %q does not name the failing subscriber", err)
	}
}
