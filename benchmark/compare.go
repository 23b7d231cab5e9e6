package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// calibrate runs the untraced suite n times on the same code and prints,
// for every workload and end-to-end metric, the median, the quartiles
// and the spread between them as a share of the median — the figure a
// metric's bound has to be judged against.
func (b *bench) calibrate(n int, jsonPath string, out io.Writer) error {
	env := b.environment()
	printEnvironment(out, env)
	file := &resultFile{Env: env}
	for i := 0; i < n; i++ {
		set := &resultSet{Seed: b.seed, EndToEnd: make(map[string]*measured)}
		for _, def := range workloadDefs {
			fmt.Fprintf(b.log, "set %d of %d: %s\n", i+1, n, def.name)
			e2e, _, err := b.measure(def, b.seed, true, false)
			if err != nil {
				return err
			}
			set.EndToEnd[def.name] = e2e
		}
		file.Sets = append(file.Sets, set)
	}
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound\t")
	failed := 0
	for _, def := range workloadDefs {
		for _, m := range b.spec.EndToEnd {
			vs := file.values(def.name, m.Name)
			q1, q3 := quartiles(vs)
			note := ""
			switch sp := spread(vs); {
			case sp > m.Bound:
				note = "spread exceeds the bound"
			case sp > m.Bound/3:
				note = "spread above a third of the bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%s\n",
				def.name, m.Name, median(vs), q1, q3, 100*spread(vs), 100*m.Bound, note)
		}
		for _, set := range file.Sets {
			failed += set.EndToEnd[def.name].Failed
		}
	}
	tw.Flush()
	fmt.Fprintf(out, "%d sets at seed %d, %d failed operations\n", n, b.seed, failed)
	if jsonPath != "" {
		if err := file.write(jsonPath); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// values lists one end-to-end metric of one workload across the sets.
func (f *resultFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, set := range f.Sets {
		if m, ok := set.EndToEnd[workload]; ok {
			if v, ok := m.Metrics[metric]; ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &f, nil
}

// verdict judges one workload × metric between a parent's runs and a
// change's runs under the metric's bound:
//
//	ok          the change's median is no worse than the parent's by more
//	            than the bound
//	worse       it is
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound, so the medians decide nothing — unless every run
//	            of the change reads better than every run of the parent
func verdict(m specMetric, parent, change []float64) (string, float64) {
	mp, mc := median(parent), median(change)
	if mp == 0 {
		return "unresolved", 0
	}
	worsening := (mc - mp) / mp
	if m.Better == "higher" {
		worsening = -worsening
	}
	if spread(parent) > m.Bound || spread(change) > m.Bound {
		if allBetter(m, parent, change) {
			return "ok", worsening
		}
		return "unresolved", worsening
	}
	if worsening > m.Bound {
		return "worse", worsening
	}
	return "ok", worsening
}

// allBetter reports whether every run of the change beats every run of
// the parent.
func allBetter(m specMetric, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if (m.Better == "higher" && c <= p) || (m.Better != "higher" && c >= p) {
				return false
			}
		}
	}
	return true
}

// compareFiles applies the declared bounds to two result files, one row
// per workload × end-to-end metric, and fails when any row is worse or
// either side had failed operations.
func compareFiles(sp *spec, parentPath, changePath string, out io.Writer) error {
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	for _, f := range []*resultFile{parent, change} {
		if !f.Env.Comparable {
			fmt.Fprintln(out, "NOT COMPARABLE: one side ran at gomaxprocs=1")
		}
	}
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworsening\tbound\tverdict\t")
	worse, failed := 0, 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			p, c := parent.values(w.Name, m.Name), change.values(w.Name, m.Name)
			v, by := "unresolved", 0.0
			if len(p) > 0 && len(c) > 0 {
				v, by = verdict(m, p, c)
			}
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\t\n",
				w.Name, m.Name, median(p), median(c), 100*by, 100*m.Bound, v)
		}
		for _, f := range []*resultFile{parent, change} {
			for _, set := range f.Sets {
				if m, ok := set.EndToEnd[w.Name]; ok {
					failed += m.Failed
				}
			}
		}
	}
	tw.Flush()
	if worse > 0 || failed > 0 {
		return fmt.Errorf("%d rows worse than their bound, %d failed operations", worse, failed)
	}
	return nil
}
