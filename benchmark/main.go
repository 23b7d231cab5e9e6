// Command benchmark is the repository's benchmark: four named workloads
// driven closed-loop against the deployed stack in one process, an
// oracle check on every reply, and an outside-in ladder that attributes
// a query's time to the layers. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
// Usage:
//
//	go run ./benchmark                                   # every workload, untraced then traced
//	go run ./benchmark -workload portal_hot -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -calibrate 5 -seed 1 -json A.json # five sets, spreads per metric
//	go run ./benchmark -compare A.json B.json            # apply the per-metric bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark declaration")
	outDir := flag.String("out", "benchmark/out", "directory for store files, traces and results")
	name := flag.String("workload", "", "run one workload and print one result line (default: the whole suite)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 0, "timed seconds per workload run (default: run_seconds of the declaration)")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	calibrate := flag.Int("calibrate", 0, "run the untraced suite N times and print median, quartiles and spread per metric")
	jsonPath := flag.String("json", "", "with the suite or -calibrate: also write the result sets to this file")
	compare := flag.Bool("compare", false, "compare two result files given as arguments under the declared bounds")
	flag.Parse()

	if err := run(*specPath, *outDir, *name, *seed, *seconds, *trace, *calibrate, *jsonPath, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(specPath, outDir, name string, seed int64, seconds, trace, calibrate int, jsonPath string, compare bool, args []string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(sp, args[0], args[1], os.Stdout)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	if seconds <= 0 {
		seconds = sp.RunSeconds
	}
	b := &bench{
		spec: sp, out: outDir, seed: seed, seconds: seconds,
		sz: fullSizes, clients: runtime.NumCPU(), log: os.Stderr,
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	switch {
	case name != "":
		res, err := b.single(name, trace == 1)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		return nil
	case calibrate > 0:
		return b.calibrate(calibrate, jsonPath, os.Stdout)
	default:
		return b.suite(jsonPath, os.Stdout)
	}
}
