package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the one place where workloads, metric names,
// units, directions and bounds are declared. The program emits metrics
// by name and checks every emission against this declaration.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// value is one emitted metric, in the shape the result line carries.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns measured numbers into the complete declared list: every
// declared metric appears once with its declared unit, a metric the
// workload does not exercise reads 0, and a measured name that was
// never declared is an error (a typo must not silently drop a metric).
func fill(declared []specMetric, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(declared))
	for _, m := range declared {
		out[m.Name] = value{Value: measured[m.Name], Unit: m.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
