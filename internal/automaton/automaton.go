// Package automaton compiles XP{[],*,//} expressions into the
// non-deterministic automata the paper's streaming evaluator runs.
//
// "Each access rule is represented by a non-deterministic automaton [...]
// made up of a navigational path (in white in the figure) representing the
// XPath without its predicate and predicate paths (in gray in the figure)
// appended to it." (Section 2.3, Figure 2.)
//
// A machine is a set of small linear state chains:
//
//   - the navigational chain: one state per location step, entered when
//     the step's node test matches; reaching the last state (NavFinal)
//     means the rule's object matches the current node;
//   - one predicate chain per predicate, anchored at the state of the
//     step carrying the predicate: entering the anchor activates the
//     chain's start state, and reaching its final state (PredFinal)
//     satisfies the predicate for that anchor instance.
//
// The descendant axis ('//') is realized by marking the *preceding* state
// as self-looping: a self-looping state stays active in every deeper
// stack frame, so its outgoing test can match at any depth below the node
// where the state was entered.
//
// Machines are compiled against a tag dictionary and operate entirely in
// code space: the SOE never compares tag strings during evaluation.
package automaton

import (
	"fmt"
	"slices"

	"repro/internal/skipindex"
	"repro/internal/tagdict"
	"repro/internal/xpath"
)

// StateID indexes a machine's state table.
type StateID uint16

// TransKind classifies a transition's node test.
type TransKind uint8

// Transition kinds.
const (
	// Exact matches one tag code.
	Exact TransKind = iota
	// WildElem matches any element code ('*').
	WildElem
	// WildAttr matches any attribute code ('@*').
	WildAttr
	// Never matches nothing: the node test names a tag absent from the
	// document's dictionary, so this chain can never complete on this
	// document. Kept (rather than pruned) so introspection still shows
	// the full rule.
	Never
)

// Transition is an outgoing edge of a state.
type Transition struct {
	Kind   TransKind
	Code   tagdict.Code // valid when Kind == Exact
	Target StateID
}

// PredStart anchors a predicate chain at a state: entering the state via
// a matching transition activates Start in the same stack frame and
// allocates a fresh predicate-instance token.
type PredStart struct {
	// Pred is the predicate index within the machine.
	Pred int
	// Start is the entry state of the predicate chain.
	Start StateID
}

// FireReq is one "can this chain still complete?" alternative: the set of
// concrete tag codes that must all occur in a subtree for the chain to
// reach its final state through this state's outgoing transition.
type FireReq struct {
	// Codes must be a subset of a subtree's tag set for completion to be
	// possible there.
	Codes skipindex.Set
	// Possible is false when a Never transition lies ahead.
	Possible bool
}

// State is one NFA state.
type State struct {
	// SelfLoop keeps the state active across opens (descendant axis).
	SelfLoop bool
	// Trans are the outgoing edges (at most one in this fragment).
	Trans []Transition
	// NavFinal marks the end of the navigational chain.
	NavFinal bool
	// PredFinal is the predicate index this state completes, or -1.
	PredFinal int
	// Cmp refines PredFinal: Exists is satisfied on entry; Eq/Neq are
	// satisfied by a matching Value event while the state is active.
	Cmp xpath.Comparison
	// CmpValue is the literal for Eq/Neq.
	CmpValue string
	// StartPreds are the predicate chains anchored at this state.
	StartPreds []PredStart
	// FireReqs are the completion requirements through each transition,
	// parallel to Trans.
	FireReqs []FireReq
}

// PredInfo describes one predicate of the machine, for introspection.
type PredInfo struct {
	// Anchor is the state whose entry creates the predicate instance.
	Anchor StateID
	// Start is the chain's entry state.
	Start StateID
	// Final is the chain's completing state.
	Final StateID
	// Source is the predicate's AST.
	Source xpath.Pred
}

// Machine is a compiled expression.
type Machine struct {
	// Source is the original expression.
	Source *xpath.Path
	// States is the state table; state 0 is the start state, active at
	// the virtual document level.
	States []State
	// Preds lists the machine's predicates (flattened, including nested).
	Preds []PredInfo
	// Universe is the dictionary size the machine was compiled against.
	Universe int
}

// Start returns the machine's start state (always 0).
func (m *Machine) Start() StateID { return 0 }

// MemBytes estimates the machine's secure-memory footprint, charged to the
// card's RAM gauge at session start. The estimate models a compact on-card
// layout — packed state records, 12-bit tag codes, bit-array requirement
// sets — not Go's in-memory representation (the original applet is C on a
// card; pointer-rich Go sizes would overstate it several-fold).
func (m *Machine) MemBytes() int {
	const stateRec = 4 // flags, final marks, cmp op, pred index
	const transRec = 4 // kind + code + target
	total := 0
	for _, s := range m.States {
		total += stateRec
		total += transRec * len(s.Trans)
		total += 3 * len(s.StartPreds)
		for _, r := range s.FireReqs {
			total += r.Codes.MemBytes()
		}
		total += len(s.CmpValue)
	}
	total += 4 * len(m.Preds)
	return total
}

// compiler carries compilation state.
type compiler struct {
	m    *Machine
	dict *tagdict.Dict
}

// Compile builds the machine for an absolute expression against dict.
func Compile(path *xpath.Path, dict *tagdict.Dict) (*Machine, error) {
	return CompileInto(new(Machine), path, dict)
}

// CompileInto builds the machine for path against dict in m, exactly as
// Compile would, and returns m. Whatever m held before is overwritten,
// and its storage — the state table, each state's transition, predicate
// and requirement lists, the requirements' tag sets — is reused, so a
// card that recompiles its rules at every header allocates nothing once
// its machines have grown. A machine whose compilation failed must be
// compiled again before use.
func CompileInto(m *Machine, path *xpath.Path, dict *tagdict.Dict) (*Machine, error) {
	if path == nil || len(path.Steps) == 0 {
		return nil, fmt.Errorf("automaton: empty path")
	}
	m.Source, m.Universe = path, dict.Len()
	m.States, m.Preds = m.States[:0], m.Preds[:0]
	c := compiler{m: m, dict: dict}
	start := c.newState()
	if _, err := c.compileChain(start, path.Steps, -1); err != nil {
		return nil, err
	}
	c.computeFireReqs()
	return m, nil
}

// newState appends a fresh state and returns its id. The slot keeps the
// lists a compilation before left in it, emptied.
func (c *compiler) newState() StateID {
	m := c.m
	n := len(m.States)
	if n == cap(m.States) {
		m.States = append(m.States, State{})
	}
	m.States = m.States[:n+1]
	s := &m.States[n]
	*s = State{PredFinal: -1, Trans: s.Trans[:0], StartPreds: s.StartPreds[:0], FireReqs: s.FireReqs[:0]}
	return StateID(n)
}

// compileChain appends a chain of states for steps, starting from `from`.
// finalPred < 0 marks the chain's last state NavFinal; otherwise it marks
// it PredFinal for that predicate index. It returns the final state id.
func (c *compiler) compileChain(from StateID, steps []xpath.Step, finalPred int) (StateID, error) {
	cur := from
	for _, step := range steps {
		if step.Axis == xpath.Descendant {
			c.m.States[cur].SelfLoop = true
		}
		next := c.newState()
		tr, err := c.transitionFor(step, next)
		if err != nil {
			return 0, err
		}
		c.m.States[cur].Trans = append(c.m.States[cur].Trans, tr)
		cur = next
		for _, pred := range step.Preds {
			if err := c.compilePred(cur, pred); err != nil {
				return 0, err
			}
		}
	}
	if finalPred < 0 {
		c.m.States[cur].NavFinal = true
	} else {
		c.m.States[cur].PredFinal = finalPred
	}
	return cur, nil
}

// compilePred builds a predicate chain anchored at anchor.
func (c *compiler) compilePred(anchor StateID, pred xpath.Pred) error {
	idx := len(c.m.Preds)
	c.m.Preds = append(c.m.Preds, PredInfo{Anchor: anchor, Source: pred})

	if pred.Path == nil {
		// '.' comparison: a single state active in the anchor's own frame,
		// satisfied by a matching Value event of the anchor node.
		st := c.newState()
		c.m.States[st].PredFinal = idx
		c.m.States[st].Cmp = pred.Cmp
		c.m.States[st].CmpValue = pred.Value
		c.m.Preds[idx].Start = st
		c.m.Preds[idx].Final = st
		c.m.States[anchor].StartPreds = append(c.m.States[anchor].StartPreds,
			PredStart{Pred: idx, Start: st})
		return nil
	}

	start := c.newState()
	final, err := c.compileChain(start, pred.Path.Steps, idx)
	if err != nil {
		return err
	}
	if pred.Cmp != xpath.Exists {
		c.m.States[final].Cmp = pred.Cmp
		c.m.States[final].CmpValue = pred.Value
	}
	c.m.Preds[idx].Start = start
	c.m.Preds[idx].Final = final
	c.m.States[anchor].StartPreds = append(c.m.States[anchor].StartPreds,
		PredStart{Pred: idx, Start: start})
	return nil
}

// transitionFor maps a step's node test to a transition.
func (c *compiler) transitionFor(step xpath.Step, target StateID) (Transition, error) {
	switch step.Name {
	case "":
		return Transition{}, fmt.Errorf("automaton: step with empty node test")
	case "*":
		return Transition{Kind: WildElem, Target: target}, nil
	case "@*":
		return Transition{Kind: WildAttr, Target: target}, nil
	default:
		code := c.dict.Code(step.Name)
		if code == tagdict.NoCode {
			return Transition{Kind: Never, Target: target}, nil
		}
		return Transition{Kind: Exact, Code: code, Target: target}, nil
	}
}

// computeFireReqs fills State.FireReqs: for each transition, the concrete
// codes still required (on the transition's own chain) to reach that
// chain's final state. Targets always have larger ids than sources, so a
// single reverse pass suffices.
//
// Requirements deliberately ignore predicate chains hanging off the
// navigational chain: a missing predicate tag can only make "the rule can
// still fire here" an overestimate, which blocks a skip the SOE could in
// principle have taken — a lost optimization, never a soundness issue.
func (c *compiler) computeFireReqs() {
	m := c.m
	for i := len(m.States) - 1; i >= 0; i-- {
		s := &m.States[i]
		if len(s.Trans) == 0 {
			continue
		}
		s.FireReqs = slices.Grow(s.FireReqs[:0], len(s.Trans))[:len(s.Trans)]
		for ti, tr := range s.Trans {
			// The requirement from the target on: a chain final requires
			// nothing further; any other state has exactly one outgoing
			// transition in this fragment, whose requirement it is.
			req := &s.FireReqs[ti]
			req.Codes, req.Possible = req.Codes.Reuse(m.Universe), true
			if down := &m.States[tr.Target]; len(down.Trans) > 0 {
				req.Codes.UnionWith(down.FireReqs[0].Codes)
				req.Possible = down.FireReqs[0].Possible
			}
			switch tr.Kind {
			case Exact:
				req.Codes.Add(tr.Code)
			case Never:
				req.Possible = false
			}
		}
	}
}
