package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/accessrule"
	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/soe"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// sectionCount is the number of independently grantable sections of the
// E3 document.
const sectionCount = 20

// SectionedDocument builds the E3 workload: a root with sectionCount
// equally sized subtrees, each bearing a distinct tag (sec00..sec19) so
// the skip index can discriminate them, and identical inner structure.
func SectionedDocument(seed int64, itemsPerSection int) *xmlstream.Node {
	rng := rand.New(rand.NewSource(seed))
	root := &xmlstream.Node{Name: "doc"}
	for s := 0; s < sectionCount; s++ {
		sec := &xmlstream.Node{Name: fmt.Sprintf("sec%02d", s)}
		for i := 0; i < itemsPerSection; i++ {
			sec.Children = append(sec.Children, &xmlstream.Node{
				Name: "item",
				Children: []*xmlstream.Node{
					{Name: "name", Children: []*xmlstream.Node{{Text: fmt.Sprintf("item-%02d-%03d", s, i)}}},
					{Name: "data", Children: []*xmlstream.Node{{Text: randomText(rng, 64)}}},
				},
			})
		}
		root.Children = append(root.Children, sec)
	}
	return root
}

func randomText(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz "
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// SectionRules grants the first k sections.
func SectionRules(subject string, k int) *accessrule.RuleSet {
	rs := &accessrule.RuleSet{Subject: subject, DefaultSign: accessrule.Deny}
	for s := 0; s < k; s++ {
		rs.Rules = append(rs.Rules, accessrule.Rule{
			ID:     fmt.Sprintf("g%d", s),
			Sign:   accessrule.Permit,
			Object: xpath.MustParse(fmt.Sprintf("/doc/sec%02d", s)),
		})
	}
	return rs
}

// E3SkipBenefit sweeps the fraction of the document the subject may read
// and compares transfer, decryption and simulated e-gate time with and
// without the skip index. Expected shape (the paper's core performance
// claim): with the index, cost is proportional to the authorized
// fraction; without it, every byte is transferred and decrypted
// regardless.
func E3SkipBenefit() []*Table {
	doc := SectionedDocument(11, 24)
	t := &Table{
		ID:    "E3",
		Title: "skip-index benefit vs authorized fraction (20-section document, e-gate profile)",
		Columns: []string{"authorized", "blocks(idx)", "blocks(no idx)", "decrypted KB(idx)",
			"decrypted KB(no idx)", "time idx", "time no-idx", "skips"},
		Notes: []string{
			"time: simulated e-gate milliseconds (transfer + crypto + evaluation)",
			"blocks: fetched from the DSP out of the total stored",
		},
	}
	for _, k := range []int{0, 2, 5, 10, 15, 20} {
		rs := SectionRules("bench", k)
		rig, err := NewPullRig(doc, fmt.Sprintf("e3-%d", k), card.EGate, docenc.EncodeOptions{}, rs)
		if err != nil {
			panic(fmt.Sprintf("E3 setup: %v", err))
		}
		withIdx, err := rig.Query("bench", "", soe.Options{})
		if err != nil {
			panic(fmt.Sprintf("E3: %v", err))
		}
		if err := rig.FreshCard(card.EGate, "bench"); err != nil {
			panic(fmt.Sprintf("E3: %v", err))
		}
		noIdx, err := rig.Query("bench", "", soe.Options{DisableSkip: true, DisableCopy: true})
		rig.Close()
		if err != nil {
			panic(fmt.Sprintf("E3: %v", err))
		}
		t.AddRow(
			pct(float64(k), sectionCount),
			fmt.Sprintf("%d/%d", withIdx.Stats.BlocksFetched, withIdx.Stats.BlocksTotal),
			fmt.Sprintf("%d/%d", noIdx.Stats.BlocksFetched, noIdx.Stats.BlocksTotal),
			kb(withIdx.Stats.Meter.CryptoBytes),
			kb(noIdx.Stats.Meter.CryptoBytes),
			ms(withIdx.Stats.Time.Total()),
			ms(noIdx.Stats.Time.Total()),
			fmt.Sprintf("%d", withIdx.Stats.Session.Core.SkippedSubtrees),
		)
	}

	// Small-document crossover: where the index record overhead exceeds
	// its saving.
	t2 := &Table{
		ID:      "E3b",
		Title:   "index crossover on small documents (everything denied except one section)",
		Columns: []string{"items/section", "payload KB", "index overhead", "time idx", "time no-idx", "index wins"},
	}
	for _, items := range []int{1, 2, 4, 8, 16, 32} {
		doc := SectionedDocument(13, items)
		rs := SectionRules("bench", 1)
		rig, err := NewPullRig(doc, fmt.Sprintf("e3b-%d", items), card.EGate, docenc.EncodeOptions{}, rs)
		if err != nil {
			panic(fmt.Sprintf("E3b setup: %v", err))
		}
		withIdx, err := rig.Query("bench", "", soe.Options{})
		if err != nil {
			panic(fmt.Sprintf("E3b: %v", err))
		}
		if err := rig.FreshCard(card.EGate, "bench"); err != nil {
			panic(err)
		}
		noIdx, err := rig.Query("bench", "", soe.Options{DisableSkip: true, DisableCopy: true})
		rig.Close()
		if err != nil {
			panic(fmt.Sprintf("E3b: %v", err))
		}
		wins := "no"
		if withIdx.Stats.Time.Total() < noIdx.Stats.Time.Total() {
			wins = "yes"
		}
		t2.AddRow(
			fmt.Sprintf("%d", items),
			kb(int64(rig.Info.PayloadBytes)),
			pct(float64(rig.Info.IndexBytes), float64(rig.Info.PayloadBytes)),
			ms(withIdx.Stats.Time.Total()),
			ms(noIdx.Stats.Time.Total()),
			wins,
		)
	}
	return []*Table{t, t2}
}
