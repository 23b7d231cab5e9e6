package bench

import (
	_ "embed"
	"strings"
	"testing"

	"repro/internal/accessrule"
	"repro/internal/docenc"
	"repro/internal/workload"
	"repro/internal/xmlstream"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "T1",
		Title:   "demo",
		Columns: []string{"col", "value"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("x", "1")
	tab.AddRow("longer-cell", "2")
	var b strings.Builder
	tab.Fprint(&b)
	out := b.String()
	for _, want := range []string{"T1 — demo", "longer-cell", "note: a note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}

func TestRunEngineMatchesWorkSplit(t *testing.T) {
	doc := workload.RandomDocument(workload.TreeConfig{
		Seed: 1, Elements: 200, MaxDepth: 6, MaxFanout: 4, TextProb: 0.6,
	})
	payload := MustPayload(doc, docenc.EncodeOptions{MinSkipBytes: 24})
	rs := workload.RandomRuleSet("u", workload.RuleConfig{Seed: 2, Count: 8, MaxSteps: 3, DescProb: 0.4, NegProb: 0.4})
	withIdx, err := RunEngine(payload, rs, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := RunEngine(payload, rs, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if withIdx.Events <= 0 || noIdx.Events < withIdx.Events {
		t.Errorf("event counts implausible: %d (idx) vs %d (no idx)", withIdx.Events, noIdx.Events)
	}
	if withIdx.Stats.TransitionsScanned > noIdx.Stats.TransitionsScanned {
		t.Errorf("the index must not increase transition work: %d vs %d",
			withIdx.Stats.TransitionsScanned, noIdx.Stats.TransitionsScanned)
	}
}

func TestSectionedDocumentAndRules(t *testing.T) {
	doc := SectionedDocument(1, 4)
	if got := len(doc.Children); got != sectionCount {
		t.Fatalf("sections = %d, want %d", got, sectionCount)
	}
	rs := SectionRules("u", 5)
	if len(rs.Rules) != 5 {
		t.Fatalf("rules = %d", len(rs.Rules))
	}
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
	// Granted fraction must match the rule count.
	frac := float64(textBytes(accessrule.ApplyTree(doc, rs))) / float64(textBytes(doc))
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("5/20 sections should be ~25%% of text, got %.2f", frac)
	}
}

// textBytes sums the text under n (0 for nil).
func textBytes(n *xmlstream.Node) int {
	if n == nil {
		return 0
	}
	total := len(n.Text)
	for _, c := range n.Children {
		total += textBytes(c)
	}
	return total
}

func TestPolicyChangeCost(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 9, Members: 8, EventsPerMember: 4})
	before := map[string]*accessrule.RuleSet{
		"bob": workload.MustParseRules("subject bob\ndefault -\n+ /agenda\n- //phone\n- //notes"),
	}
	after := map[string]*accessrule.RuleSet{
		"bob": workload.MustParseRules("subject bob\ndefault -\n+ /agenda\n- //phone"),
	}
	plain, err := after["bob"].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	baseline, _, _ := baselineCost(doc, decideSets(doc, before), decideSets(doc, after))
	if baseline <= int64(len(plain)) {
		t.Errorf("the baseline must cost more than one rule set (%d vs %d)", baseline, len(plain))
	}
	// No change: the baseline cost must be zero.
	same, _, _ := baselineCost(doc, decideSets(doc, before), decideSets(doc, before))
	if same != 0 {
		t.Errorf("unchanged policy re-encrypted %d bytes", same)
	}
}

// TestExperimentsSmoke runs every experiment once: they must complete and
// produce non-empty, well-formed tables.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run()
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %s is empty", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %s: row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
					}
				}
			}
		})
	}
}

//go:embed paper_tables.golden
var paperTablesGolden string

// wallClock names, per table, the columns a clock measures; every other
// cell of the paper's tables comes from the card meter or a byte count
// and is pinned by TestPaperTablesGolden.
var wallClock = map[string][]int{"E1": {2, 3}}

// TestPaperTablesGolden renders E1–E8 with the wall-clock columns masked
// and compares the result, line by line, with the tables the experiments
// printed when the golden file was cut.
func TestPaperTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range All() {
		for _, tab := range e.Run() {
			for _, col := range wallClock[tab.ID] {
				for _, row := range tab.Rows {
					row[col] = "*"
				}
			}
			tab.Fprint(&b)
		}
	}
	got, want := strings.Split(b.String(), "\n"), strings.Split(paperTablesGolden, "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
