package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share its
// trace number; parent is the span that caused this one, 0 for a root.
type span struct {
	Trace  int    `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. Spans are
// recorded entirely from the benchmark's side of each call; the program
// under test carries none of its own yet.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its number, which its children name as
// their parent.
func (t *tracer) begin(trace, parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, Span: id, Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// layerOf is the layer a span belongs to: span names read "layer:call".
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ":")
	return layer
}

// perTrace sums, for every layer, the spans of each trace: once their
// full durations and once their self times, a span's duration minus the
// part its children cover. A layer called several times by one
// operation (the store, by a session) thus reads as one figure per
// operation.
func (t *tracer) perTrace() (total, self map[string][]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name  string
		trace int
	}
	totals, selfs := make(map[key]int64), make(map[key]int64)
	var order []key
	for _, s := range t.spans {
		k := key{layerOf(s.Name), s.Trace}
		if _, seen := totals[k]; !seen {
			order = append(order, k)
		}
		totals[k] += s.End - s.Start
		selfs[k] += s.End - s.Start - children[s.Span]
	}
	total, self = make(map[string][]time.Duration), make(map[string][]time.Duration)
	for _, k := range order {
		total[k.name] = append(total[k.name], time.Duration(totals[k]))
		self[k.name] = append(self[k.name], time.Duration(selfs[k]))
	}
	return total, self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
