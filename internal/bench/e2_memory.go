package bench

import (
	"errors"
	"fmt"

	"repro/internal/card"
	"repro/internal/docenc"
	"repro/internal/mem"
	"repro/internal/soe"
	"repro/internal/workload"
)

// E2MemoryFootprint validates the demonstration's headline hardware
// claim: the streaming evaluator runs in the e-gate's 1 KB of working
// memory. The sweep shows where the budget actually breaks (rule count ×
// document depth), which is the design envelope of the approach.
func E2MemoryFootprint() []*Table {
	t := &Table{
		ID:      "E2",
		Title:   "secure-RAM peak (bytes) on the e-gate profile (1024-byte budget)",
		Columns: []string{"profile", "rules", "depth", "RAM peak", "entries peak", "tokens", "fits 1KB"},
		Notes: []string{
			"RAM peak charges automata, token stack frames, predicate tokens, pending decisions and the input-window carry",
			"OVERFLOW: the session aborted exactly where a real applet's allocation would fail",
			"'//'-heavy rule sets on deep documents are the worst case: self-looping states replicate across every frame",
		},
	}
	for _, profile := range []workload.Profile{workload.ProfileShallow, workload.ProfileDescendant} {
		for _, rules := range []int{2, 4, 8, 16, 32} {
			for _, depth := range []int{4, 8, 12} {
				doc := workload.RandomDocument(workload.TreeConfig{
					Seed:      int64(100*rules + depth),
					Elements:  600,
					MaxDepth:  depth,
					MaxFanout: 3,
					TextProb:  0.5,
					AttrProb:  0.2,
				})
				cfg := workload.ProfileConfig(profile, int64(rules), rules, nil)
				rs := workload.RandomRuleSet("bench", cfg)

				rig, err := NewPullRig(doc, fmt.Sprintf("e2-%s-%d-%d", profile, rules, depth),
					card.EGate, docenc.EncodeOptions{}, rs)
				if err != nil {
					panic(fmt.Sprintf("E2 setup: %v", err))
				}
				res, err := rig.Query("bench", "", soe.Options{})
				rig.Close()
				switch {
				case err == nil:
					s := res.Stats.Session
					t.AddRow(
						string(profile),
						fmt.Sprintf("%d", rules),
						fmt.Sprintf("%d", depth),
						fmt.Sprintf("%d", s.RAMPeak),
						fmt.Sprintf("%d", s.Core.EntriesPeak),
						fmt.Sprintf("%d", s.Core.TokensCreated),
						"yes",
					)
				case errors.Is(err, mem.ErrBudget):
					t.AddRow(string(profile), fmt.Sprintf("%d", rules), fmt.Sprintf("%d", depth),
						"OVERFLOW", "-", "-", "no")
				default:
					panic(fmt.Sprintf("E2: unexpected failure: %v", err))
				}
			}
		}
	}
	return []*Table{t}
}
