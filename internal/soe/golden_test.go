package soe

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/card"
	"repro/internal/core"
)

// goldenOutcomes are what the named corpus cases cost and produced at
// commit ea2d6ae, the last one whose card loop allocated per event and
// compacted its input window after every item: the SHA-256 of the record
// stream, the card meter and the session statistics of a fresh session
// under default options. The simulated card's cost model is a contract;
// where the host keeps its bytes is not part of it. Regenerate only for a
// change that means to move the model, and say so.
var goldenOutcomes = map[string]struct {
	records string
	meter   card.Meter
	stats   Stats
}{
	"pull-nurse": {
		records: "e0e550e954ac8464de89a291def03ba1a059631de347173a592b3e2cbbd74b90",
		meter:   card.Meter{BytesToCard: 4510, BytesFromCard: 4600, APDUs: 34, CryptoBytes: 4209, MACBytes: 4209, Events: 398, Transitions: 212, CopyBytes: 2731, EEPROMBytes: 127},
		stats:   Stats{Core: core.Stats{Opens: 137, Values: 124, Closes: 137, TransitionsScanned: 212, TransitionsTaken: 19, EntriesPeak: 16, TokensCreated: 0, GroupsCreated: 0, EntriesSuspended: 45, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 0, CopiedEvents: 91, CopiedBytes: 2731, MaxDepth: 5, EmittedOpens: 137, EmittedValues: 96, EmittedCloses: 137}, RAMPeak: 271},
	},
	"skip-emergency": {
		records: "2e7c92b93bcf16ae257846324f0c23927453c3d0eae145eb735298c4e3e09c8a",
		meter:   card.Meter{BytesToCard: 38721, BytesFromCard: 3852, APDUs: 286, CryptoBytes: 36399, MACBytes: 36399, Events: 1143, Transitions: 1006, CopyBytes: 327, EEPROMBytes: 127},
		stats:   Stats{Core: core.Stats{Opens: 570, Values: 246, Closes: 327, TransitionsScanned: 1006, TransitionsTaken: 120, EntriesPeak: 8, TokensCreated: 0, GroupsCreated: 0, EntriesSuspended: 299, SkippedSubtrees: 243, SkippedBytes: 61407, ValueBytesSkipped: 0, CopiedEvents: 144, CopiedBytes: 327, MaxDepth: 4, EmittedOpens: 327, EmittedValues: 126, EmittedCloses: 327}, RAMPeak: 188},
	},
	"attr-predicate": {
		records: "346252d77e5948acfe9454141523a2a26ba7c3ac5505103f56efc2d6a6509e95",
		meter:   card.Meter{BytesToCard: 14081, BytesFromCard: 1893, APDUs: 105, CryptoBytes: 13208, MACBytes: 13208, Events: 328, Transitions: 25, CopyBytes: 889, EEPROMBytes: 68},
		stats:   Stats{Core: core.Stats{Opens: 183, Values: 65, Closes: 80, TransitionsScanned: 25, TransitionsTaken: 25, EntriesPeak: 4, TokensCreated: 12, GroupsCreated: 12, EntriesSuspended: 0, SkippedSubtrees: 103, SkippedBytes: 11554, ValueBytesSkipped: 0, CopiedEvents: 143, CopiedBytes: 889, MaxDepth: 3, EmittedOpens: 80, EmittedValues: 65, EmittedCloses: 80}, RAMPeak: 190},
	},
	"query-skip": {
		records: "70c4d17e4210c8d9448fbcfb73802f6d3395f540fbf95aa04a644fd5a60b9bec",
		meter:   card.Meter{BytesToCard: 24582, BytesFromCard: 2486, APDUs: 182, CryptoBytes: 23096, MACBytes: 23096, Events: 837, Transitions: 365, CopyBytes: 276, EEPROMBytes: 127},
		stats:   Stats{Core: core.Stats{Opens: 404, Values: 186, Closes: 247, TransitionsScanned: 365, TransitionsTaken: 30, EntriesPeak: 5, TokensCreated: 0, GroupsCreated: 0, EntriesSuspended: 170, SkippedSubtrees: 157, SkippedBytes: 39287, ValueBytesSkipped: 0, CopiedEvents: 117, CopiedBytes: 276, MaxDepth: 4, EmittedOpens: 247, EmittedValues: 66, EmittedCloses: 247}, RAMPeak: 140},
	},
	"ablation": {
		records: "a6280c43383220a4124490e4632583617272eb4572ad9a073a9347da954e35ab",
		meter:   card.Meter{BytesToCard: 6264, BytesFromCard: 3393, APDUs: 47, CryptoBytes: 5861, MACBytes: 5861, Events: 601, Transitions: 315, CopyBytes: 65, EEPROMBytes: 127},
		stats:   Stats{Core: core.Stats{Opens: 235, Values: 154, Closes: 212, TransitionsScanned: 315, TransitionsTaken: 39, EntriesPeak: 12, TokensCreated: 0, GroupsCreated: 0, EntriesSuspended: 60, SkippedSubtrees: 23, SkippedBytes: 4189, ValueBytesSkipped: 0, CopiedEvents: 27, CopiedBytes: 65, MaxDepth: 5, EmittedOpens: 212, EmittedValues: 146, EmittedCloses: 212}, RAMPeak: 241},
	},
	"index-free": {
		records: "3f4f2c0e8ea95ce65ab624925c24faec508f4f9069a1d261284d81d04eb2d8d9",
		meter:   card.Meter{BytesToCard: 1467, BytesFromCard: 1886, APDUs: 12, CryptoBytes: 1342, MACBytes: 1342, Events: 305, Transitions: 110, CopyBytes: 0, EEPROMBytes: 81},
		stats:   Stats{Core: core.Stats{Opens: 110, Values: 85, Closes: 110, TransitionsScanned: 110, TransitionsTaken: 5, EntriesPeak: 5, TokensCreated: 0, GroupsCreated: 0, EntriesSuspended: 0, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 0, CopiedEvents: 0, CopiedBytes: 0, MaxDepth: 4, EmittedOpens: 110, EmittedValues: 80, EmittedCloses: 110}, RAMPeak: 144},
	},
	"value-query": {
		records: "c417cc5994cba3789e988584dc51c3f289829923b1e4ed7d9713e4aae8b6ca11",
		meter:   card.Meter{BytesToCard: 3098, BytesFromCard: 3098, APDUs: 24, CryptoBytes: 2876, MACBytes: 2876, Events: 276, Transitions: 127, CopyBytes: 193, EEPROMBytes: 127},
		stats:   Stats{Core: core.Stats{Opens: 96, Values: 84, Closes: 96, TransitionsScanned: 127, TransitionsTaken: 21, EntriesPeak: 10, TokensCreated: 8, GroupsCreated: 8, EntriesSuspended: 16, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 0, CopiedEvents: 3, CopiedBytes: 193, MaxDepth: 5, EmittedOpens: 96, EmittedValues: 57, EmittedCloses: 96}, RAMPeak: 257},
	},
	"folder-256": {
		records: "becffe4fc290cca7917ff86fb6ba4daacf0fd797e5757ad5f8bc49f1d61c2dbf",
		meter:   card.Meter{BytesToCard: 33027, BytesFromCard: 34916, APDUs: 370, CryptoBytes: 31989, MACBytes: 31989, Events: 3038, Transitions: 1283, CopyBytes: 21160, EEPROMBytes: 127},
		stats:   Stats{Core: core.Stats{Opens: 1074, Values: 890, Closes: 1074, TransitionsScanned: 1283, TransitionsTaken: 119, EntriesPeak: 10, TokensCreated: 0, GroupsCreated: 0, EntriesSuspended: 242, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 0, CopiedEvents: 532, CopiedBytes: 21160, MaxDepth: 5, EmittedOpens: 1074, EmittedValues: 682, EmittedCloses: 1074}, RAMPeak: 210},
	},
	"folder-predicates": {
		records: "aec4b6ee26e12471b61069807fca0b043c3b11f176cafa0b1fb980c7bf8af8c8",
		meter:   card.Meter{BytesToCard: 33034, BytesFromCard: 37602, APDUs: 374, CryptoBytes: 31989, MACBytes: 31989, Events: 3038, Transitions: 2361, CopyBytes: 4767, EEPROMBytes: 127},
		stats:   Stats{Core: core.Stats{Opens: 1074, Values: 890, Closes: 1074, TransitionsScanned: 2361, TransitionsTaken: 594, EntriesPeak: 13, TokensCreated: 144, GroupsCreated: 144, EntriesSuspended: 272, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 0, CopiedEvents: 64, CopiedBytes: 4767, MaxDepth: 5, EmittedOpens: 1074, EmittedValues: 860, EmittedCloses: 1074}, RAMPeak: 386},
	},
	"stream-child": {
		records: "9cbafb2c7122d9f7ce061c09c11aa34eec0b755211c33067a80e41d1befb4b10",
		meter:   card.Meter{BytesToCard: 8197, BytesFromCard: 3669, APDUs: 61, CryptoBytes: 7678, MACBytes: 7678, Events: 379, Transitions: 91, CopyBytes: 2091, EEPROMBytes: 65},
		stats:   Stats{Core: core.Stats{Opens: 166, Values: 97, Closes: 116, TransitionsScanned: 91, TransitionsTaken: 60, EntriesPeak: 4, TokensCreated: 30, GroupsCreated: 30, EntriesSuspended: 30, SkippedSubtrees: 50, SkippedBytes: 11000, ValueBytesSkipped: 0, CopiedEvents: 67, CopiedBytes: 2091, MaxDepth: 3, EmittedOpens: 116, EmittedValues: 97, EmittedCloses: 116}, RAMPeak: 174},
	},
	"stream-adult-64": {
		records: "adfd1ad17b03203610e857743bd2adb0d36c2c2bc23db522d7925ee29c03783f",
		meter:   card.Meter{BytesToCard: 16023, BytesFromCard: 16026, APDUs: 223, CryptoBytes: 14206, MACBytes: 14206, Events: 850, Transitions: 0, CopyBytes: 12784, EEPROMBytes: 65},
		stats:   Stats{Core: core.Stats{Opens: 241, Values: 368, Closes: 241, TransitionsScanned: 0, TransitionsTaken: 0, EntriesPeak: 0, TokensCreated: 0, GroupsCreated: 0, EntriesSuspended: 0, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 0, CopiedEvents: 848, CopiedBytes: 12784, MaxDepth: 1, EmittedOpens: 241, EmittedValues: 368, EmittedCloses: 241}, RAMPeak: 64},
	},
	"stream-standing-query": {
		records: "b7bc7d8d231a332d18ff9e9d0c10913adf5170f25af9b177dfb72f1ca78faef5",
		meter:   card.Meter{BytesToCard: 3302, BytesFromCard: 3924, APDUs: 25, CryptoBytes: 3062, MACBytes: 3062, Events: 453, Transitions: 151, CopyBytes: 400, EEPROMBytes: 65},
		stats:   Stats{Core: core.Stats{Opens: 161, Values: 131, Closes: 161, TransitionsScanned: 151, TransitionsTaken: 60, EntriesPeak: 5, TokensCreated: 20, GroupsCreated: 20, EntriesSuspended: 20, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 0, CopiedEvents: 7, CopiedBytes: 400, MaxDepth: 4, EmittedOpens: 161, EmittedValues: 131, EmittedCloses: 161}, RAMPeak: 209},
	},
	"stream-buffered-value": {
		records: "1f08e5881b236e9b753f959b6ecf2c3383815b31e0d7ed995d6d74ff3279a85f",
		meter:   card.Meter{BytesToCard: 3115, BytesFromCard: 3210, APDUs: 44, CryptoBytes: 2724, MACBytes: 2724, Events: 266, Transitions: 122, CopyBytes: 240, EEPROMBytes: 65},
		stats:   Stats{Core: core.Stats{Opens: 97, Values: 72, Closes: 97, TransitionsScanned: 122, TransitionsTaken: 36, EntriesPeak: 7, TokensCreated: 12, GroupsCreated: 12, EntriesSuspended: 36, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 0, CopiedEvents: 108, CopiedBytes: 240, MaxDepth: 3, EmittedOpens: 97, EmittedValues: 72, EmittedCloses: 97}, RAMPeak: 362},
	},
	"stream-value-skip": {
		records: "efc003c51c368545fdafc3bc37888669aac9ce3dcb69e1de37b3d6035b2b7faf",
		meter:   card.Meter{BytesToCard: 2430, BytesFromCard: 1146, APDUs: 19, CryptoBytes: 2242, MACBytes: 2242, Events: 266, Transitions: 97, CopyBytes: 0, EEPROMBytes: 65},
		stats:   Stats{Core: core.Stats{Opens: 97, Values: 72, Closes: 97, TransitionsScanned: 97, TransitionsTaken: 12, EntriesPeak: 5, TokensCreated: 0, GroupsCreated: 0, EntriesSuspended: 0, SkippedSubtrees: 0, SkippedBytes: 0, ValueBytesSkipped: 3600, CopiedEvents: 0, CopiedBytes: 0, MaxDepth: 4, EmittedOpens: 97, EmittedValues: 36, EmittedCloses: 97}, RAMPeak: 141},
	},
}

// TestOutcomesMatchGolden pins records, meter and statistics (RAM peak
// included: the window is charged from its logical extent) to the values
// recorded before the event path moved into reused buffers.
func TestOutcomesMatchGolden(t *testing.T) {
	seen := 0
	for _, ec := range corpus(t) {
		want, ok := goldenOutcomes[ec.name]
		if !ok {
			continue
		}
		seen++
		got := evaluateFresh(t, ec, Options{})
		if sum := fmt.Sprintf("%x", sha256.Sum256(got.records)); sum != want.records {
			t.Errorf("%s: record stream hashes to %s, golden %s", ec.name, sum, want.records)
		}
		if got.meter != want.meter {
			t.Errorf("%s: card meter\ngot:    %+v\ngolden: %+v", ec.name, got.meter, want.meter)
		}
		if got.stats != want.stats {
			t.Errorf("%s: session statistics\ngot:    %+v\ngolden: %+v", ec.name, got.stats, want.stats)
		}
	}
	if seen != len(goldenOutcomes) {
		t.Errorf("%d of %d golden cases are in the corpus", seen, len(goldenOutcomes))
	}
}
