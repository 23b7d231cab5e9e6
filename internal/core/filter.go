package core

import (
	"fmt"

	"repro/internal/accessrule"
	"repro/internal/mem"
	"repro/internal/tagdict"
	"repro/internal/xmlstream"
	"repro/internal/xpath"
)

// Filter runs the streaming evaluator over an in-memory event stream and
// returns the authorized view — the paper's engine used as a plain
// library, without encryption or card simulation. It is also the
// reference integration point for property tests (its result must equal
// accessrule.ApplyTreeQuery on every input).
//
// A nil query delivers the entire authorized view. The returned tree is
// nil when nothing is visible.
func Filter(evs []xmlstream.Event, rules *accessrule.RuleSet, query *xpath.Path) (*xmlstream.Node, Stats, error) {
	return FilterGauge(evs, rules, query, mem.Nop{})
}

// FilterGauge is Filter with explicit secure-memory accounting, used by
// the memory-footprint experiments.
func FilterGauge(evs []xmlstream.Event, rules *accessrule.RuleSet, query *xpath.Path, gauge mem.Gauge) (*xmlstream.Node, Stats, error) {
	view, stats, err := filterView(evs, rules, query, gauge)
	return view.Tree(), stats, err
}

// filterView runs the evaluator into an Assembler and returns the view
// in its compact form.
func filterView(evs []xmlstream.Event, rules *accessrule.RuleSet, query *xpath.Path, gauge mem.Gauge) (*View, Stats, error) {
	dict, err := DictFromEvents(evs)
	if err != nil {
		return nil, Stats{}, err
	}
	asm := NewAssembler(dict)
	ev, err := NewEvaluator(Config{
		Rules:   rules,
		Query:   query,
		Dict:    dict,
		Emitter: asm,
		Gauge:   gauge,
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var text []byte // one buffer for every value: the evaluator keeps none
	for i, e := range evs {
		switch e.Kind {
		case xmlstream.Open:
			// No skip index on a raw event stream: meta is nil.
			if _, err := ev.Open(dict.Code(e.Name), nil); err != nil {
				return nil, ev.Stats(), fmt.Errorf("core: event %d: %w", i, err)
			}
		case xmlstream.Value:
			text = append(text[:0], e.Text...)
			if err := ev.Value(text); err != nil {
				return nil, ev.Stats(), fmt.Errorf("core: event %d: %w", i, err)
			}
		case xmlstream.Close:
			if err := ev.Close(); err != nil {
				return nil, ev.Stats(), fmt.Errorf("core: event %d: %w", i, err)
			}
		}
	}
	if err := ev.Finish(); err != nil {
		return nil, ev.Stats(), err
	}
	view, err := asm.Finish()
	return view, ev.Stats(), err
}

// DictFromEvents builds a frequency-ordered tag dictionary from an event
// stream (the encoder does the same on the publishing side).
func DictFromEvents(evs []xmlstream.Event) (*tagdict.Dict, error) {
	stats := xmlstream.CollectStats(evs)
	return tagdict.FromCounts(stats.TagCounts)
}
