package main

import (
	"fmt"
	"time"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// broadcastFanout is the paper's second application: one rated media
// stream pushed to a set of subscriber cards, each filtering it under
// its own parental-control profile. It runs the card, crypto and filter
// layers through the offer path — no store, fleet or gateway — so a
// pull-pipeline optimisation that costs the push path shows here.
type broadcastFanout struct {
	seed int64
	sz   sizes

	tree *xmlstream.Node
	// rules[profile] and expected[profile] are the oracle's: each
	// profile's rule set and its view of the stream.
	rules    []*accessrule.RuleSet
	expected []*xmlstream.Node

	container *docenc.Container
	subs      []*dissem.Subscriber
	subjects  map[string]string
}

const fanoutDoc = "stream"

func newBroadcastFanout(seed int64, sz sizes, _ int) (instance, error) {
	f := &broadcastFanout{seed: seed, sz: sz}
	f.tree = workload.MediaStream(workload.StreamConfig{
		Seed: seed, Segments: sz.fanoutSegments, PayloadBytes: sz.fanoutPayload,
	})
	var err error
	if f.rules, err = oracleRules(fanoutProfiles, fanoutDoc); err != nil {
		return nil, err
	}
	for p, rules := range f.rules {
		want, _, err := core.Filter(f.tree.Events(), rules, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle view of profile %d: %w", p, err)
		}
		f.expected = append(f.expected, want)
	}
	return f, nil
}

func (f *broadcastFanout) encodeOptions() docenc.EncodeOptions {
	return docenc.EncodeOptions{DocID: fanoutDoc, Version: 1, Key: secure.KeyFromSeed(fanoutDoc), MinSkipBytes: 32}
}

// setup is the publisher encoding the stream and every subscriber's
// card being provisioned with the key and its sealed profile, then the
// warm-up broadcasts. Nothing is stored, so dir stays empty.
func (f *broadcastFanout) setup(dir string) error {
	opts := f.encodeOptions()
	var err error
	if f.container, _, err = docenc.Encode(f.tree, opts); err != nil {
		return err
	}
	f.subs, f.subjects = nil, make(map[string]string)
	for i := 0; i < f.sz.fanoutSubscribers; i++ {
		name := fmt.Sprintf("sub-%02d", i)
		rules, err := parseRules(fanoutProfiles[i%len(fanoutProfiles)], name, fanoutDoc)
		if err != nil {
			return err
		}
		plain, err := rules.MarshalBinary()
		if err != nil {
			return err
		}
		sealed, err := secure.EncryptBlob(opts.Key, card.RuleBlobNamespace(fanoutDoc, name), 0, plain)
		if err != nil {
			return err
		}
		c := card.New(card.Modern)
		if err := c.PutKey(fanoutDoc, opts.Key); err != nil {
			return err
		}
		if err := c.PutSealedRuleSet(fanoutDoc, name, sealed); err != nil {
			return err
		}
		f.subs = append(f.subs, dissem.NewSubscriber(name, c, nil, soe.Options{}))
		f.subjects[name] = name
	}
	for i := 0; i < fanoutWarmUp; i++ {
		_, verify, err := f.broadcast(nil)
		if err == nil {
			err = verify()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fanoutWarmUp is the number of broadcasts before the first timed one:
// enough for the subscriber sessions' buffers to reach their steady size.
const fanoutWarmUp = 8

// fanoutTotals accumulates what the receptions of a pass report.
type fanoutTotals struct {
	receptions, offered, forwarded int64
	meter                          card.Meter
}

// broadcast pushes the stream to every subscriber once. The returned
// function compares each reception with its profile's view.
func (f *broadcastFanout) broadcast(tot *fanoutTotals) (int64, func() error, error) {
	recs, err := dissem.BroadcastPerSubject(f.container, f.subjects, f.subs)
	if err != nil {
		return 0, nil, err
	}
	if tot != nil {
		for _, r := range recs {
			tot.receptions++
			tot.offered += int64(r.BlocksOffered)
			tot.forwarded += int64(r.BlocksForwarded)
			tot.meter.Add(r.Meter)
		}
	}
	delivered := int64(len(recs)) * int64(f.container.StoredSize())
	return delivered, func() error {
		for i, r := range recs {
			if err := f.judge(i, r); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// judge compares subscriber i's reception with its profile's view.
func (f *broadcastFanout) judge(i int, r *dissem.Reception) error {
	want := f.expected[i%len(fanoutProfiles)]
	if (want == nil) != (r.Tree == nil) || (want != nil && !want.Equal(r.Tree)) {
		return fmt.Errorf("reception of %s differs from the oracle's view", r.Subscriber)
	}
	return nil
}

func (f *broadcastFanout) run(d time.Duration) (*window, error) {
	c := &client{op: func() (int64, func() error, error) { return f.broadcast(nil) }}
	return runClients([]*client{c}, d), nil
}

func (f *broadcastFanout) close() error {
	f.container, f.subs = nil, nil
	return nil
}

// fanoutLayers are the layers of one reception, outermost first.
var fanoutLayers = []string{"dissem", "soe", "secure"}

// layers measures broadcast_fanout from outside: what the receptions of
// a window of whole broadcasts report, then one subscriber at a time at
// three depths — a broadcast to it alone, its card session driven by
// hand, the decryption of the blocks the card took — and the reference
// filter beside them.
func (f *broadcastFanout) layers(dir string, d time.Duration, tr *tracer) (map[string]float64, *window, error) {
	if err := f.setup(dir); err != nil {
		return nil, nil, err
	}
	defer f.close()
	m := make(map[string]float64)

	var tot fanoutTotals
	w := runClients([]*client{{op: func() (int64, func() error, error) { return f.broadcast(&tot) }}}, d/4)
	receptions := float64(tot.receptions)
	m["dissem.broadcast_p50_ms"] = ms(w.lat.pct(50))
	m["dissem.blocks_forwarded_ratio"] = ratio(float64(tot.forwarded), float64(tot.offered))
	m["card.sim_ms_per_op"] = ratio(ms(tot.meter.Price(card.Modern).Total()), receptions)
	m["card.crypto_bytes_per_op"] = ratio(float64(tot.meter.CryptoBytes), receptions)

	// One subscriber at a time: operation i is subscriber i's reception.
	n := f.sz.ladderOps
	reception := func(i int) error {
		s := f.subs[i%len(f.subs)]
		recs, err := dissem.BroadcastPerSubject(f.container, map[string]string{s.Name: s.Name}, []*dissem.Subscriber{s})
		if err != nil {
			return err
		}
		return f.judge(i%len(f.subs), recs[0])
	}
	plain := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		err := reception(i)
		plain = append(plain, time.Since(start))
		w.note(err)
	}

	header, err := f.container.Header.MarshalBinary()
	if err != nil {
		return nil, nil, err
	}
	events := f.tree.Events()
	cr := cardRungs{fed: make([][]int, n)}
	climb(tr, 0, n, []rung{
		{name: "dissem:BroadcastPerSubject", parent: -1, call: func(i, _, _ int) error { return reception(i) }},
		{name: "soe:Session.Feed", parent: 0, call: func(i, _, _ int) error {
			s := f.subs[i%len(f.subs)]
			return cr.drive(i, s.Card, s.Name, f.container, header)
		}},
		{name: "secure:BlockContext.DecryptBlocks", parent: 1, call: func(i, _, _ int) error {
			return decryptFed(f.subs[i%len(f.subs)].Card, f.container, cr.fed[i])
		}},
		// Beside the chain, for reference (see portal_hot's ladder).
		{name: "core:Filter", parent: -1, call: func(i, _, _ int) error {
			_, _, err := core.Filter(events, f.rules[i%len(f.subs)%len(fanoutProfiles)], nil)
			return err
		}},
	}, w)
	total, self := tr.perTrace()
	m["dissem.self_us"] = us(medianDur(self["dissem"]))
	cr.metrics(m, total, self)
	traceClosure(m, medianDur(plain), medianDur(total["dissem"]), self, fanoutLayers)
	return m, w, nil
}
