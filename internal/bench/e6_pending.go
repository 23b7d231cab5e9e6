package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/soe"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

// pendingDocument builds the E6 workload: sections whose delivery depends
// on a <grant/> marker. markerPos places the marker among the section's
// items (0.0 = first child: predicates resolve immediately; 1.0 = last
// child: the whole section is pending until its end). selectivity is the
// fraction of sections that carry the marker at all.
func pendingDocument(seed int64, sections, items int, markerPos, selectivity float64) *xmlstream.Node {
	rng := rand.New(rand.NewSource(seed))
	root := &xmlstream.Node{Name: "doc"}
	markerAt := int(markerPos * float64(items))
	if markerAt >= items {
		markerAt = items - 1
	}
	for s := 0; s < sections; s++ {
		sec := &xmlstream.Node{Name: "sec"}
		marked := rng.Float64() < selectivity
		for i := 0; i < items; i++ {
			if marked && i == markerAt {
				sec.Children = append(sec.Children, &xmlstream.Node{Name: "grant"})
			}
			sec.Children = append(sec.Children, &xmlstream.Node{
				Name: "item",
				Children: []*xmlstream.Node{
					{Name: "data", Children: []*xmlstream.Node{{Text: randomText(rng, 48)}}},
				},
			})
		}
		root.Children = append(root.Children, sec)
	}
	return root
}

// E6PendingBuffer measures the pending-rule machinery: how much candidate
// output the terminal buffers, and how group counts scale, as a function
// of where the deciding predicate child appears in the section and how
// selective it is. Expected shape: buffering grows linearly with the
// marker position (content before the marker must be withheld) and is
// unaffected by whether the section is eventually delivered — the cost is
// paid by UNCERTAINTY, not by the outcome.
func E6PendingBuffer() []*Table {
	t := &Table{
		ID:    "E6",
		Title: "terminal buffering under pending rules (+ //sec[grant], 30 sections x 20 items)",
		Columns: []string{"marker pos", "selectivity", "groups", "pending events",
			"pending KB", "delivered KB", "RAM peak"},
		Notes: []string{
			"pending: events/bytes the terminal held until the card resolved their group",
			"the SOE buffers nothing: pending state costs it only group records (see RAM peak)",
		},
	}
	for _, posFrac := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		for _, sel := range []float64{0.2, 0.8} {
			doc := pendingDocument(21, 30, 20, posFrac, sel)
			rs := workload.MustParseRules("subject u\ndefault -\n+ //sec[grant]")
			rig, err := NewPullRig(doc, fmt.Sprintf("e6-%v-%v", posFrac, sel),
				card.Modern, docenc.EncodeOptions{}, rs)
			if err != nil {
				panic(fmt.Sprintf("E6 setup: %v", err))
			}
			res, err := rig.Query("u", "", soe.Options{})
			if err != nil {
				panic(fmt.Sprintf("E6: %v", err))
			}
			delivered := int64(0)
			if tree := res.Tree(); tree != nil {
				delivered = int64(len(tree.TextContent()))
			}
			t.AddRow(
				fmt.Sprintf("%.0f%%", posFrac*100),
				fmt.Sprintf("%.0f%%", sel*100),
				fmt.Sprintf("%d", res.Stats.Session.Core.GroupsCreated),
				fmt.Sprintf("%d", res.Stats.PendingEvents),
				kb(res.Stats.PendingBytes),
				kb(delivered),
				fmt.Sprintf("%d", res.Stats.Session.RAMPeak),
			)
		}
	}
	return []*Table{t}
}
