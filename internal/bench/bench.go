// Package bench reproduces the paper's evaluation tables (E1–E8): rule
// scaling, secure-RAM footprint, skip-index benefit and size, pull
// latency, pending buffering, dissemination and dynamic rights.
// cmd/sdsbench prints them; bench_test.go at the repository root wraps
// the same kernels in testing.B benchmarks.
//
// All experiments are deterministic (seeded workloads, simulated card
// time); wall-clock numbers appear only where explicitly labelled, and
// every other cell is pinned by TestPaperTablesGolden.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment result: a titled grid.
type Table struct {
	ID      string // experiment id, e.g. "E3"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// ms renders a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// pct renders a ratio as a percentage.
func pct(part, whole float64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*part/whole)
}

// kb renders bytes as KiB.
func kb(n int64) string {
	return fmt.Sprintf("%.1f", float64(n)/1024)
}

// Experiment couples an id with the runner that renders its tables.
type Experiment struct {
	ID   string
	Name string
	Run  func() []*Table
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "evaluator scaling with rule count", E1RuleScaling},
		{"E2", "secure-RAM footprint", E2MemoryFootprint},
		{"E3", "skip-index benefit vs authorized fraction", E3SkipBenefit},
		{"E4", "skip-index compactness", E4IndexOverhead},
		{"E5", "end-to-end pull latency", E5PullLatency},
		{"E6", "pending-predicate buffering", E6PendingBuffer},
		{"E7", "selective dissemination throughput", E7Dissemination},
		{"E8", "dynamic rule changes vs re-encryption", E8DynamicRules},
	}
}
