package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// bench is one invocation's settings.
type bench struct {
	spec    *spec
	out     string
	seed    int64
	seconds int
	sz      sizes
	// clients is the closed-loop client count: one goroutine and one
	// connection per processor, never more, because the load generator
	// shares the machine with the system under test.
	clients int
	log     io.Writer
}

// repetitions is how many times a run sets the rig up and measures.
const repetitions = 3

type workloadDef struct {
	name string
	new  func(seed int64, sz sizes, clients int) (instance, error)
}

var workloadDefs = []workloadDef{
	{"portal_hot", newPortalHot},
	{"store_cold", newStoreCold},
	{"republish_mix", newRepublishMix},
	{"broadcast_fanout", newBroadcastFanout},
}

func findWorkload(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// result is the line a single-workload run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measured is one workload's run: its metrics by name, the operations
// behind them, and which percentile the tail metric could support.
type measured struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples,omitempty"`
	TailPct   float64            `json:"tail_percentile,omitempty"`
	firstErr  error
}

func (m *measured) count(w *window) {
	m.Attempted += w.attempted
	m.Failed += w.failed
	if m.firstErr == nil {
		m.firstErr = w.firstErr
	}
}

// reps collects the repetitions of one workload's untraced run.
type reps struct {
	windows []*window
	setups  []time.Duration
}

func (r *reps) measured() *measured {
	m := &measured{}
	m.Metrics, m.TailPct = endToEnd(r.windows, r.setups)
	for _, w := range r.windows {
		m.count(w)
		m.Samples += len(w.lat)
	}
	return m
}

// repetition sets the workload up in a fresh directory under the output
// directory (every byte the benchmark writes stays in its checkout),
// measures one window and tears down.
func (b *bench) repetition(name string, inst instance, r *reps) error {
	dir, err := os.MkdirTemp(b.out, name+"-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	if err := inst.setup(dir); err != nil {
		_ = inst.close()
		return fmt.Errorf("%s: set-up: %w", name, err)
	}
	setup := time.Since(start)
	w, err := inst.run(time.Duration(b.seconds) * time.Second / repetitions)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.windows = append(r.windows, w)
	r.setups = append(r.setups, setup)
	fmt.Fprintf(b.log, "%s: set-up %.3f s, %d operations at %.0f/s, %d failed\n",
		name, setup.Seconds(), w.ops, w.rate(), w.failed)
	return nil
}

// traced runs the workload's counter window, single-client traced pass
// and layer probes, and writes the spans to <out>/<workload>.trace.json.
func (b *bench) traced(name string, inst instance) (*measured, error) {
	dir, err := os.MkdirTemp(b.out, name+"-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	metrics, w, err := inst.layers(dir, time.Duration(b.seconds)*time.Second, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", name, err)
	}
	m := &measured{Metrics: metrics}
	m.count(w)
	return m, tr.write(filepath.Join(b.out, name+".trace.json"))
}

// measure runs one workload at one seed: its inputs are generated, then
// the untraced repetitions and the traced pass run as asked, and the
// inputs are dropped. Workloads are measured one at a time for a reason:
// the Go heap target follows the live heap, so a corpus left in memory
// by one workload would buy the next one fewer garbage collections than
// it gets on its own — portal_hot ran twice as fast beside 65 MiB of
// another workload's ciphertext as it does alone.
func (b *bench) measure(def workloadDef, seed int64, untraced, traced bool) (e2e, layers *measured, err error) {
	defer runtime.GC()
	inst, err := def.new(seed, b.sz, b.clients)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generating inputs: %w", def.name, err)
	}
	if untraced {
		var r reps
		for i := 0; i < repetitions; i++ {
			if err := b.repetition(def.name, inst, &r); err != nil {
				return nil, nil, err
			}
		}
		e2e = r.measured()
	}
	if traced {
		if layers, err = b.traced(def.name, inst); err != nil {
			return nil, nil, err
		}
	}
	return e2e, layers, nil
}

// single runs one workload the way the acceptance driver asks for it and
// shapes the result line.
func (b *bench) single(name string, traced bool) (*result, error) {
	def, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	e2e, layers, err := b.measure(def, b.seed, !traced, traced)
	if err != nil {
		return nil, err
	}
	m, declared := e2e, b.spec.EndToEnd
	if traced {
		m, declared = layers, b.spec.PerLayer
	}
	if m.firstErr != nil {
		fmt.Fprintf(b.log, "%s: first failed operation: %v\n", name, m.firstErr)
	}
	metrics, err := fill(declared, m.Metrics)
	if err != nil {
		return nil, err
	}
	return &result{Correct: m.Failed == 0 && m.Attempted > 0, Attempted: m.Attempted, Failed: m.Failed, Metrics: metrics}, nil
}

// environment is recorded with every result file: figures from hosts
// that differ here are not comparable.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Seconds    int    `json:"run_seconds"`
	// Comparable is false for a single-processor run: the system's
	// shards, segments, group commit and decrypt workers then never run
	// in parallel, and such a run must not be compared with one where
	// they do.
	Comparable bool `json:"comparable"`
}

func (b *bench) environment() environment {
	e := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown", Clients: b.clients, Seconds: b.seconds,
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(rel))
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(rev))
	}
	e.Comparable = e.GOMAXPROCS >= 2
	return e
}

// resultSet is one pass over every workload at one seed.
type resultSet struct {
	Seed     int64                `json:"seed"`
	EndToEnd map[string]*measured `json:"end_to_end"`
	PerLayer map[string]*measured `json:"per_layer,omitempty"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Env  environment  `json:"env"`
	Sets []*resultSet `json:"sets"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// suite is the one command: every workload untraced, then its traced
// pass, every metric printed by name with its unit.
func (b *bench) suite(jsonPath string, out io.Writer) error {
	env := b.environment()
	printEnvironment(out, env)
	set := &resultSet{Seed: b.seed, EndToEnd: make(map[string]*measured), PerLayer: make(map[string]*measured)}
	failed := 0
	for _, def := range workloadDefs {
		e2e, layers, err := b.measure(def, b.seed, true, true)
		if err != nil {
			return err
		}
		set.EndToEnd[def.name], set.PerLayer[def.name] = e2e, layers
		fmt.Fprintf(out, "\n== %s ==\n", def.name)
		if err := b.printMetrics(out, b.spec.EndToEnd, e2e.Metrics); err != nil {
			return err
		}
		fmt.Fprintf(out, "  %d timed operations; op_p99_ms is their p%.4g; failed_ratio %d/%d\n",
			e2e.Samples, e2e.TailPct, e2e.Failed, e2e.Attempted)
		fmt.Fprintf(out, "  -- per layer (traced pass, %d operations, %d failed; spans in %s) --\n",
			layers.Attempted, layers.Failed, filepath.Join(b.out, def.name+".trace.json"))
		if err := b.printMetrics(out, b.spec.PerLayer, layers.Metrics); err != nil {
			return err
		}
		for _, m := range []*measured{e2e, layers} {
			failed += m.Failed
			if m.firstErr != nil {
				fmt.Fprintf(out, "  first failed operation: %v\n", m.firstErr)
			}
		}
	}
	fmt.Fprint(out, "\nfsync is on for every store in this run. Disk and page-cache figures\n"+
		"(setup_s, commit latency, checkpoint and recovery times) are this sandbox's,\n"+
		"not a device's: reads come from the page cache and a flush may cost next to nothing.\n")
	if jsonPath != "" {
		if err := (&resultFile{Env: env, Sets: []*resultSet{set}}).write(jsonPath); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func printEnvironment(out io.Writer, e environment) {
	fmt.Fprintf(out, "nproc %d  gomaxprocs %d  clients %d  %s  %s  kernel %s  commit %s  %d s per workload\n",
		e.NumCPU, e.GOMAXPROCS, e.Clients, e.Go, e.OS, e.Kernel, e.Commit, e.Seconds)
	if !e.Comparable {
		fmt.Fprintln(out, "NOT COMPARABLE: gomaxprocs=1, nothing in the system can run in parallel")
	}
}

// printMetrics prints the declared metrics a workload measured, in
// declaration order. Metrics of layers the workload does not run are
// left out (the single-workload result line carries them as 0); a
// measured metric that was never declared is an error.
func (b *bench) printMetrics(out io.Writer, declared []specMetric, got map[string]float64) error {
	if _, err := fill(declared, got); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok {
			continue
		}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound %.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", m.Name, v, m.Unit, m.Better, bound)
	}
	return tw.Flush()
}
