package dissem

import (
	"testing"

	"repro/internal/docenc"
	"repro/internal/race"
	"repro/internal/secure"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// stream is one broadcast of the push suite: a document and the standing
// query it is received under.
type stream struct {
	name      string
	container *docenc.Container
	query     *xpath.Path
}

// profiles are the push suite's rule sets: an attribute predicate, an
// element predicate (pending until the metadata is read), everything.
var profiles = []string{
	"subject u\ndefault -\n+ //segment[@rating = \"all\"]",
	"subject u\ndefault -\n+ //segment[meta/rating = \"family\"]\n- //timestamp",
	"subject u\ndefault +",
}

// streams encodes the push suite's documents under one document id and
// key, the way successive broadcasts reach one standing subscriber.
func streams(t testing.TB, key secure.DocKey) []stream {
	t.Helper()
	encode := func(cfg workload.StreamConfig, opts docenc.EncodeOptions) *docenc.Container {
		opts.DocID, opts.Key = "s", key
		con, _, err := docenc.Encode(workload.MediaStream(cfg), opts)
		if err != nil {
			t.Fatal(err)
		}
		return con
	}
	return []stream{
		{"rated", encode(workload.StreamConfig{Seed: 5, Segments: 30, PayloadBytes: 400}, docenc.EncodeOptions{MinSkipBytes: 24}), nil},
		{"news", encode(workload.StreamConfig{Seed: 6, Segments: 20, PayloadBytes: 80}, docenc.EncodeOptions{MinSkipBytes: 24}),
			xpath.MustParse(`//segment[meta/channel = "news"]`)},
		{"small-blocks", encode(workload.StreamConfig{Seed: 7, Segments: 15, PayloadBytes: 60}, docenc.EncodeOptions{BlockPlain: 64}), nil},
		{"mid-blocks", encode(workload.StreamConfig{Seed: 8, Segments: 25, PayloadBytes: 200}, docenc.EncodeOptions{BlockPlain: 128, MinSkipBytes: 24}), nil},
	}
}

// TestStandingSubscriberMatchesFresh: a subscriber that has received
// other streams — and one a tampered block cut short — receives each
// stream exactly as a subscriber built for it: same content, same card
// work, same statistics.
func TestStandingSubscriberMatchesFresh(t *testing.T) {
	key := secure.KeyFromSeed("standing")
	all := streams(t, key)
	for _, profile := range profiles {
		standing := subscriberFor(t, "standing", "s", profile, key, nil)
		for round := 0; round < 2; round++ {
			for i, st := range all {
				standing.Query = st.query
				// A broadcast that fails half way through...
				broken := *st.container
				broken.Blocks = append([][]byte(nil), st.container.Blocks...)
				bad := append([]byte(nil), broken.Blocks[0]...)
				bad[len(bad)/2] ^= 1
				broken.Blocks[0] = bad
				if _, err := Broadcast(&broken, "u", []*Subscriber{standing}); err == nil {
					t.Fatalf("%s: tampered broadcast was received", st.name)
				}
				// ...another stream, then the one compared.
				other := all[(i+1+round)%len(all)]
				standing.Query = other.query
				if _, err := Broadcast(other.container, "u", []*Subscriber{standing}); err != nil {
					t.Fatalf("%s: %v", other.name, err)
				}
				standing.Query = st.query
				got, err := Broadcast(st.container, "u", []*Subscriber{standing})
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				fresh := subscriberFor(t, "standing", "s", profile, key, st.query)
				want, err := Broadcast(st.container, "u", []*Subscriber{fresh})
				if err != nil {
					t.Fatal(err)
				}
				g, w := got[0], want[0]
				if (g.Tree == nil) != (w.Tree == nil) || g.Tree != nil && !g.Tree.Equal(w.Tree) {
					t.Errorf("%s: delivered content differs", st.name)
				}
				if g.Meter != w.Meter || g.Session != w.Session ||
					g.BlocksForwarded != w.BlocksForwarded || g.BlocksOffered != w.BlocksOffered {
					t.Errorf("%s: reception differs:\ngot:  %+v\nwant: %+v", st.name, *g, *w)
				}
			}
		}
		if n := standing.Card.RAM.InUse(); n != 0 {
			t.Errorf("%d bytes of card RAM still charged", n)
		}
	}
}

// receptionRig is a standing subscriber under the element-predicate
// profile and a stream of the given length for it.
func receptionRig(t testing.TB, segments int) (*Subscriber, *docenc.Container) {
	t.Helper()
	key := secure.KeyFromSeed("reception")
	con, _, err := docenc.Encode(workload.MediaStream(workload.StreamConfig{Seed: 3, Segments: segments, PayloadBytes: 300}),
		docenc.EncodeOptions{DocID: "s", Key: key, MinSkipBytes: 24})
	if err != nil {
		t.Fatal(err)
	}
	return subscriberFor(t, "viewer", "s", profiles[1], key, nil), con
}

// TestReceptionAllocsFlatAcrossStreamLength is the push-side twin of the
// terminal's allocation gate: a standing subscriber receives a stream
// with a number of allocations that does not follow its length. The
// bound is 15% over the 16 a reception measures with the card's
// dictionary, automata, header check and the subscriber's view all
// re-armed in place (77 when each was built afresh): what is left is the
// broadcast's own goroutine and bookkeeping, the header's bytes and
// document id, and the Reception with its fresh Tree.
func TestReceptionAllocsFlatAcrossStreamLength(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const bound = 18
	measure := func(segments int) float64 {
		sub, con := receptionRig(t, segments)
		subs := []*Subscriber{sub}
		run := func() {
			recs, err := Broadcast(con, "u", subs)
			if err != nil {
				t.Fatal(err)
			}
			if st := recs[0].Session.Core; st.GroupsCreated < segments/2 || recs[0].Tree == nil {
				t.Fatalf("profile is not predicate-bearing on this stream: %+v", st)
			}
		}
		run() // warm: buffers and slabs reach their size
		run()
		return testing.AllocsPerRun(20, run)
	}
	small, large := measure(30), measure(120)
	t.Logf("allocations per reception: %.0f for 30 segments, %.0f for 120", small, large)
	if large > small*1.15 || large > bound {
		t.Errorf("allocations per reception: %.0f for 30 segments, %.0f for 120; want within 15%% of each other and at most %d", small, large, bound)
	}
}

// BenchmarkBroadcastReception is one standing subscriber receiving one
// stream: the card loop of the push path, offer by offer.
func BenchmarkBroadcastReception(b *testing.B) {
	sub, con := receptionRig(b, 60)
	subs := []*Subscriber{sub}
	plain := 0
	for _, blk := range con.Blocks {
		plain += len(blk) - secure.MACLen
	}
	b.SetBytes(int64(plain))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Broadcast(con, "u", subs); err != nil {
			b.Fatal(err)
		}
	}
}
