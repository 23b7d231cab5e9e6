package bench

import (
	"fmt"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/soe"
	"repro/internal/workload"
)

// E5PullLatency measures the end-to-end response time of a pull query as
// the document grows, decomposed into the three cost drivers the paper
// names (transfer, decryption+integrity, evaluation), on both the e-gate
// profile and a modern secure element. Expected shape: e-gate time is
// dominated by the 2 KB/s link; the index keeps it proportional to the
// authorized/relevant part instead of the whole document.
func E5PullLatency() []*Table {
	t := &Table{
		ID:    "E5",
		Title: "pull response time vs document size (nurse profile, full authorized view)",
		Columns: []string{"profile", "patients", "stored KB", "blocks fetched",
			"transfer", "crypto", "evaluate", "total(idx)", "total(no idx)"},
		Notes: []string{"times in simulated milliseconds"},
	}
	rules := `
subject nurse
default -
+ /folder
- //ssn
- //contact
- //report`
	for _, profile := range []card.Profile{card.EGate, card.Modern} {
		for _, patients := range []int{5, 10, 20, 40, 80} {
			doc := workload.MedicalFolder(workload.MedicalConfig{
				Seed: int64(patients), Patients: patients, VisitsPerPatient: 4,
			})
			rs := workload.MustParseRules(rules)
			rig, err := NewPullRig(doc, fmt.Sprintf("e5-%s-%d", profile.Name, patients),
				profile, docenc.EncodeOptions{}, rs)
			if err != nil {
				panic(fmt.Sprintf("E5 setup: %v", err))
			}
			withIdx, err := rig.Query("nurse", "", soe.Options{})
			if err != nil {
				panic(fmt.Sprintf("E5: %v", err))
			}
			if err := rig.FreshCard(profile, "nurse"); err != nil {
				panic(err)
			}
			noIdx, err := rig.Query("nurse", "", soe.Options{DisableSkip: true, DisableCopy: true})
			rig.Close()
			if err != nil {
				panic(fmt.Sprintf("E5: %v", err))
			}
			tb := withIdx.Stats.Time
			t.AddRow(
				profile.Name,
				fmt.Sprintf("%d", patients),
				kb(int64(rig.Info.StoredBytes)),
				fmt.Sprintf("%d/%d", withIdx.Stats.BlocksFetched, withIdx.Stats.BlocksTotal),
				ms(tb.Transfer),
				ms(tb.Crypto),
				ms(tb.Evaluate),
				ms(tb.Total()),
				ms(noIdx.Stats.Time.Total()),
			)
		}
	}

	// A selective query over a large document: the pull case the skip
	// index was designed for.
	t2 := &Table{
		ID:      "E5b",
		Title:   "selective query latency (query //emergency over growing folders, e-gate)",
		Columns: []string{"patients", "stored KB", "blocks fetched", "total(idx)", "total(no idx)", "speedup"},
	}
	for _, patients := range []int{10, 20, 40, 80} {
		doc := workload.MedicalFolder(workload.MedicalConfig{
			Seed: int64(patients), Patients: patients, VisitsPerPatient: 4,
		})
		rs := workload.MustParseRules("subject all\ndefault +")
		rig, err := NewPullRig(doc, fmt.Sprintf("e5b-%d", patients),
			card.EGate, docenc.EncodeOptions{MinSkipBytes: 32}, rs)
		if err != nil {
			panic(fmt.Sprintf("E5b setup: %v", err))
		}
		withIdx, err := rig.Query("all", "//emergency", soe.Options{})
		if err != nil {
			panic(fmt.Sprintf("E5b: %v", err))
		}
		if err := rig.FreshCard(card.EGate, "all"); err != nil {
			panic(err)
		}
		noIdx, err := rig.Query("all", "//emergency", soe.Options{DisableSkip: true, DisableCopy: true})
		rig.Close()
		if err != nil {
			panic(fmt.Sprintf("E5b: %v", err))
		}
		speedup := float64(noIdx.Stats.Time.Total()) / float64(withIdx.Stats.Time.Total())
		t2.AddRow(
			fmt.Sprintf("%d", patients),
			kb(int64(rig.Info.StoredBytes)),
			fmt.Sprintf("%d/%d", withIdx.Stats.BlocksFetched, withIdx.Stats.BlocksTotal),
			ms(withIdx.Stats.Time.Total()),
			ms(noIdx.Stats.Time.Total()),
			fmt.Sprintf("%.1fx", speedup),
		)
	}
	return []*Table{t, t2}
}
