package dissem

import (
	"fmt"
	"testing"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// subscriberFor provisions a card and wraps it in a subscriber.
func subscriberFor(t testing.TB, name, docID, rules string, key secure.DocKey, query *xpath.Path) *Subscriber {
	t.Helper()
	c := card.New(card.Modern)
	if err := c.PutKey(docID, key); err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules(rules)
	rs.DocID = docID
	if err := c.PutRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	return NewSubscriber(name, c, query, soe.Options{})
}

func TestBroadcastFiltersPerSubscriber(t *testing.T) {
	// Payloads must span multiple cipher blocks for terminal-side block
	// dropping to show: a skip shorter than a block still touches every
	// block it straddles.
	doc := workload.MediaStream(workload.StreamConfig{Seed: 5, Segments: 30, PayloadBytes: 400})
	key := secure.KeyFromSeed("bcast")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "s", Key: key, MinSkipBytes: 24})
	if err != nil {
		t.Fatal(err)
	}

	profiles := map[string]string{
		"child": `subject child` + "\n" + `default -` + "\n" + `+ //segment[@rating = "all"]`,
		"adult": "subject adult\ndefault +",
	}
	subs := []*Subscriber{
		subscriberFor(t, "child", "s", profiles["child"], key, nil),
		subscriberFor(t, "adult", "s", profiles["adult"], key, nil),
	}
	recs, err := BroadcastPerSubject(container, map[string]string{"child": "child", "adult": "adult"}, subs)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range recs {
		rs := workload.MustParseRules(profiles[r.Subscriber])
		want := accessrule.ApplyTree(doc, rs)
		if !r.Tree.Equal(want) {
			t.Errorf("%s: delivered stream diverges from oracle", r.Subscriber)
		}
	}
	child, adult := recs[0], recs[1]
	if child.BlocksForwarded >= adult.BlocksForwarded {
		t.Errorf("the child's terminal must drop blocks (%d vs %d forwarded)",
			child.BlocksForwarded, adult.BlocksForwarded)
	}
	if child.Time.Total() >= adult.Time.Total() {
		t.Errorf("the child's card must do less work (%v vs %v)",
			child.Time.Total(), adult.Time.Total())
	}
}

func TestBroadcastWithStandingQuery(t *testing.T) {
	doc := workload.MediaStream(workload.StreamConfig{Seed: 6, Segments: 20, PayloadBytes: 80})
	key := secure.KeyFromSeed("bq")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "s", Key: key, MinSkipBytes: 24})
	if err != nil {
		t.Fatal(err)
	}
	q := xpath.MustParse(`//segment[meta/channel = "news"]`)
	sub := subscriberFor(t, "newsie", "s", "subject u\ndefault +", key, q)
	recs, err := Broadcast(container, "u", []*Subscriber{sub})
	if err != nil {
		t.Fatal(err)
	}
	rs := workload.MustParseRules("subject u\ndefault +")
	want := accessrule.ApplyTreeQuery(doc, rs, q)
	if !recs[0].Tree.Equal(want) {
		t.Fatal("standing-query stream diverges from oracle")
	}
}

func TestBroadcastManySubscribers(t *testing.T) {
	doc := workload.MediaStream(workload.StreamConfig{Seed: 7, Segments: 15, PayloadBytes: 60})
	key := secure.KeyFromSeed("many")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{DocID: "s", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	var subs []*Subscriber
	subjects := map[string]string{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("sub%d", i)
		subs = append(subs, subscriberFor(t, name, "s", "subject "+name+"\ndefault +", key, nil))
		subjects[name] = name
	}
	recs, err := BroadcastPerSubject(container, subjects, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d receptions", len(recs))
	}
	for _, r := range recs[1:] {
		if !r.Tree.Equal(recs[0].Tree) {
			t.Error("identical subscribers must receive identical streams")
		}
	}
}

func TestBroadcastMissingSubject(t *testing.T) {
	doc := workload.MediaStream(workload.StreamConfig{Seed: 8, Segments: 3, PayloadBytes: 40})
	key := secure.KeyFromSeed("ms")
	container, _, _ := docenc.Encode(doc, docenc.EncodeOptions{DocID: "s", Key: key})
	sub := subscriberFor(t, "x", "s", "subject x\ndefault +", key, nil)
	if _, err := BroadcastPerSubject(container, map[string]string{}, []*Subscriber{sub}); err == nil {
		t.Error("missing subject mapping must fail")
	}
}

func TestBroadcastUnprovisionedSubscriber(t *testing.T) {
	doc := workload.MediaStream(workload.StreamConfig{Seed: 9, Segments: 3, PayloadBytes: 40})
	key := secure.KeyFromSeed("up")
	container, _, _ := docenc.Encode(doc, docenc.EncodeOptions{DocID: "s", Key: key})
	c := card.New(card.Modern) // no key, no rules
	sub := NewSubscriber("ghost", c, nil, soe.Options{})
	if _, err := Broadcast(container, "ghost", []*Subscriber{sub}); err == nil {
		t.Error("an unprovisioned card cannot join a broadcast")
	}
}
