package main

import (
	"io"
	"math"
	"regexp"
	"sync"
	"testing"

	"repro/internal/dsp"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestDeclaration checks BENCHMARK.json against the limits the benchmark
// contract sets and against the workloads the program knows.
func TestDeclaration(t *testing.T) {
	sp := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, '_', '.' and '-'", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d implemented", len(sp.Workloads), len(workloadDefs))
	}
	for i, w := range sp.Workloads {
		check(w.Name)
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is declared %q and implemented %q", i, w.Name, workloadDefs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", sp.RunSeconds)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at shrunken sizes
// both ways the acceptance driver does and checks that each run is
// correct, carries exactly the declared metrics with the declared units,
// reports no end-to-end metric as 0, and that every per-layer metric is
// measured by at least one workload.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := testSpec(t)
	var mu sync.Mutex
	measured := make(map[string]bool)
	t.Run("workloads", func(t *testing.T) {
		for _, def := range workloadDefs {
			t.Run(def.name, func(t *testing.T) {
				t.Parallel()
				b := &bench{spec: sp, out: t.TempDir(), seed: 5, seconds: 2, sz: testSizes, clients: 2, log: io.Discard}
				for _, traced := range []bool{false, true} {
					declared := sp.EndToEnd
					if traced {
						declared = sp.PerLayer
					}
					res, err := b.single(def.name, traced)
					if err != nil {
						t.Fatalf("traced=%v: %v", traced, err)
					}
					if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
						t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
					}
					if len(res.Metrics) != len(declared) {
						t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(res.Metrics), len(declared))
					}
					for _, m := range declared {
						got, ok := res.Metrics[m.Name]
						switch {
						case !ok:
							t.Errorf("%s is declared and not emitted", m.Name)
						case got.Unit != m.Unit:
							t.Errorf("%s emitted in %q, declared in %q", m.Name, got.Unit, m.Unit)
						case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
							t.Errorf("%s is %v", m.Name, got.Value)
						case !traced && got.Value == 0:
							t.Errorf("end-to-end metric %s reads 0", m.Name)
						}
						if traced && got.Value != 0 {
							mu.Lock()
							measured[m.Name] = true
							mu.Unlock()
						}
					}
				}
			})
		}
	})
	// Counts that are legitimately 0 on a healthy run.
	idle := map[string]bool{
		"gateway.errors": true, "fleet.checkout_waits": true, "fleet.retires": true,
		"dsp.heap_reads": true, "dsp.cache_evictions": true, "republish.torn_read_ratio": true,
		"dsp.checkpoint_ms": true, "dsp.checkpoints": true, "dsp.cache_hit_ratio": true,
		"proxy.blocks_wasted_ratio": true,
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] && !idle[m.Name] {
			t.Errorf("per-layer metric %s read 0 on every workload", m.Name)
		}
	}
}

// TestTimedStoreKeepsTheCodePath checks that the timing decorator offers
// exactly the optional interfaces of the store it wraps: proxy.Session
// picks its in-place decrypt path by asserting ReadBlocksFrame, and the
// publisher its delta path by asserting dsp.DocUpdater.
func TestTimedStoreKeepsTheCodePath(t *testing.T) {
	type frameReader interface {
		ReadBlocksFrame(docID string, start, count int) (*dsp.BlockFrame, error)
	}
	tr := newTracer()
	overPool, _ := newTimedStore(&dsp.Pool{}, tr)
	if _, ok := overPool.(frameReader); !ok {
		t.Error("a decorated pool lost ReadBlocksFrame")
	}
	overCache, _ := newTimedStore(dsp.NewCache(dsp.NewMemStore(), 1<<20), tr)
	if _, ok := overCache.(frameReader); ok {
		t.Error("a decorated cache gained ReadBlocksFrame")
	}
	for name, s := range map[string]dsp.Store{"pool": overPool, "cache": overCache} {
		if _, ok := s.(dsp.DocUpdater); !ok {
			t.Errorf("decorated %s lost dsp.DocUpdater", name)
		}
		if _, ok := s.(dsp.BlockRangeReader); !ok {
			t.Errorf("decorated %s lost dsp.BlockRangeReader", name)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of 10,20,30 = %v, %v; Python gives 10, 30", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name           string
		m              specMetric
		parent, change []float64
		want           string
	}{
		{"unchanged", lower, steady, steady, "ok"},
		{"slower", lower, steady, []float64{115, 116, 114, 115}, "worse"},
		{"within the bound", lower, steady, []float64{105, 106, 104, 105}, "ok"},
		{"faster rate", higher, steady, []float64{120, 121, 119, 120}, "ok"},
		{"lower rate", higher, steady, []float64{85, 86, 84, 85}, "worse"},
		{"too noisy to say", lower, []float64{80, 100, 120, 140}, []float64{90, 110, 130, 150}, "unresolved"},
		{"noisy but every run better", lower, []float64{200, 240, 280, 320}, []float64{100, 120, 140, 160}, "ok"},
	} {
		if got, _ := verdict(c.m, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
