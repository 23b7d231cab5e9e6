package bench

import (
	"fmt"

	"repro/internal/card"
	"repro/internal/dissem"
	"repro/internal/docenc"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/workload"
)

// E7Dissemination evaluates the push scenario: a rated media stream
// broadcast to subscribers whose cards enforce different parental-control
// profiles. Reported per subscriber: how much of the broadcast its card
// had to handle, the simulated processing time, the sustainable stream
// rate, and whether an e-gate-class card keeps up with the broadcast in
// real time — the demo's "response time requirements (user patience /
// real time)" axis.
func E7Dissemination() []*Table {
	// Parental-control profiles keyed on the segment's @rating attribute:
	// attributes precede content, so the card settles each segment's fate
	// before its payload and can skip what it must not (or need not)
	// deliver. The same rules written against meta/rating would stay
	// pending across the whole segment — measured as the last row.
	profiles := map[string]string{
		"child":      "subject child\ndefault -\n+ //segment[@rating = \"all\"]",
		"teen":       "subject teen\ndefault +\n- //segment[@rating = \"adult\"]",
		"adult":      "subject adult\ndefault +",
		"child-elem": "subject child-elem\ndefault -\n+ //segment[meta/rating = \"all\"]",
	}

	t := &Table{
		ID:    "E7",
		Title: "selective dissemination of a rated stream (120 segments, 256-byte payloads, e-gate cards)",
		Columns: []string{"subscriber", "blocks fwd", "delivered segs", "sim time",
			"stream KB/s", "realtime @2KB/s"},
		Notes: []string{
			"blocks fwd: broadcast blocks the terminal actually forwarded to the card",
			"stream KB/s: broadcast rate the card sustains (stored size / simulated processing time)",
			"realtime: sustains at least the 2 KB/s the e-gate link delivers",
		},
	}

	doc := workload.MediaStream(workload.StreamConfig{Seed: 3, Segments: 120, PayloadBytes: 256})
	key := secure.KeyFromSeed("e7-stream")
	container, _, err := docenc.Encode(doc, docenc.EncodeOptions{
		DocID: "stream", Key: key, MinSkipBytes: 32,
	})
	if err != nil {
		panic(fmt.Sprintf("E7: %v", err))
	}

	var subs []*dissem.Subscriber
	subjects := map[string]string{}
	for _, name := range []string{"child", "teen", "adult", "child-elem"} {
		c := card.New(card.EGate)
		if err := c.PutKey("stream", key); err != nil {
			panic(err)
		}
		rs := workload.MustParseRules(profiles[name])
		rs.DocID = "stream"
		sealed, err := card.SealRuleSet(key, rs)
		if err != nil {
			panic(err)
		}
		if err := c.PutSealedRuleSet("stream", rs.Subject, sealed); err != nil {
			panic(err)
		}
		subs = append(subs, dissem.NewSubscriber(name, c, nil, soe.Options{}))
		subjects[name] = name
	}

	receptions, err := dissem.BroadcastPerSubject(container, subjects, subs)
	if err != nil {
		panic(fmt.Sprintf("E7: %v", err))
	}
	stored := int64(container.StoredSize())
	for _, r := range receptions {
		delivered := 0
		if r.Tree != nil {
			delivered = len(r.Tree.Find("segment"))
		}
		simT := r.Time.Total()
		rate := "-"
		realtime := "-"
		if simT > 0 {
			bps := float64(stored) / simT.Seconds()
			rate = fmt.Sprintf("%.1f", bps/1024)
			if bps >= 2048 {
				realtime = "yes"
			} else {
				realtime = "no"
			}
		}
		t.AddRow(
			r.Subscriber,
			fmt.Sprintf("%d/%d", r.BlocksForwarded, r.BlocksOffered),
			fmt.Sprintf("%d", delivered),
			ms(simT),
			rate,
			realtime,
		)
	}

	// Payload-size sweep: where does an e-gate stop being a real-time
	// filter? (The demo streamed video METADATA-rated segments; raw video
	// at full rate cannot cross a 2 KB/s link.)
	t2 := &Table{
		ID:      "E7b",
		Title:   "real-time feasibility vs segment payload (teen profile, e-gate)",
		Columns: []string{"payload bytes", "stored KB", "sim time", "sustainable KB/s"},
	}
	for _, payload := range []int{64, 256, 1024, 4096} {
		doc := workload.MediaStream(workload.StreamConfig{Seed: 3, Segments: 60, PayloadBytes: payload})
		key := secure.KeyFromSeed(fmt.Sprintf("e7b-%d", payload))
		container, _, err := docenc.Encode(doc, docenc.EncodeOptions{
			DocID: "stream", Key: key, MinSkipBytes: 32,
		})
		if err != nil {
			panic(err)
		}
		c := card.New(card.EGate)
		if err := c.PutKey("stream", key); err != nil {
			panic(err)
		}
		rs := workload.MustParseRules(profiles["teen"])
		rs.DocID = "stream"
		sealed, _ := card.SealRuleSet(key, rs)
		if err := c.PutSealedRuleSet("stream", "teen", sealed); err != nil {
			panic(err)
		}
		sub := dissem.NewSubscriber("teen", c, nil, soe.Options{})
		recs, err := dissem.Broadcast(container, "teen", []*dissem.Subscriber{sub})
		if err != nil {
			panic(err)
		}
		simT := recs[0].Time.Total()
		rate := float64(container.StoredSize()) / simT.Seconds() / 1024
		t2.AddRow(
			fmt.Sprintf("%d", payload),
			kb(int64(container.StoredSize())),
			ms(simT),
			fmt.Sprintf("%.1f", rate),
		)
	}
	return []*Table{t, t2}
}
