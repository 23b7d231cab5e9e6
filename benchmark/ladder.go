package main

import "time"

// rung is one depth of the ladder: one call into a layer, made for every
// operation of a seeded list. The method measures layers from outside:
// the same operations run at successive depths — the whole stack first,
// then the stack minus its outermost layer, and so on down — and a
// layer's cost is what its rung adds to the rung below. The rungs are
// separate executions of the same inputs, not one execution observed at
// several points; the parent links between their spans say which
// difference to take, not which call contained which.
type rung struct {
	// name is the span name, "layer:call".
	name string
	// parent is the index of the rung one level up, -1 for the top.
	parent int
	// call runs operation i at this depth. trace and span identify the
	// rung's own span, for calls that record child spans of their own.
	call func(i, trace, span int) error
	// before, when set, prepares operation i outside the span.
	before func(i int) error
}

// climb runs the rungs in order, each over operations first..first+n-1,
// recording one span per rung and operation; operation i is trace i+1.
// Failures are counted on w.
func climb(tr *tracer, first, n int, rungs []rung, w *window) {
	ids := make([][]int, len(rungs))
	for r, rg := range rungs {
		ids[r] = make([]int, n)
		for k := 0; k < n; k++ {
			i := first + k
			var err error
			if rg.before != nil {
				err = rg.before(i)
			}
			if err == nil {
				parent := 0
				if rg.parent >= 0 {
					parent = ids[rg.parent][k]
				}
				id := tr.begin(i+1, parent, rg.name)
				ids[r][k] = id
				err = rg.call(i, i+1, id)
				tr.end(id)
			}
			w.note(err)
		}
	}
}

// traceClosure adds the two informational figures every traced pass
// reports: how much slower the traced top-level call ran than the same
// call untraced, and which share of the untraced median the self times
// of the named layers leave unexplained.
func traceClosure(m map[string]float64, untraced, traced time.Duration, self map[string][]time.Duration, layers []string) {
	if untraced <= 0 {
		return
	}
	var sum time.Duration
	for _, layer := range layers {
		sum += medianDur(self[layer])
	}
	m["trace.overhead_pct"] = 100 * float64(traced-untraced) / float64(untraced)
	m["trace.unattributed_pct"] = 100 * float64(untraced-sum) / float64(untraced)
}
