package core

import (
	"fmt"

	"repro/internal/accessrule"
	"repro/internal/automaton"
	"repro/internal/mem"
	"repro/internal/skipindex"
	"repro/internal/tagdict"
	"repro/internal/xpath"
)

// Config assembles an Evaluator.
type Config struct {
	// Rules is the subject's rule set. Required.
	Rules *accessrule.RuleSet
	// Query optionally restricts delivery to matching subtrees (pull
	// mode). Nil delivers the whole authorized view (push mode).
	Query *xpath.Path
	// Dict is the document's tag dictionary. Required.
	Dict *tagdict.Dict
	// Emitter receives the output protocol. Required.
	Emitter Emitter
	// Gauge charges secure working memory; nil disables accounting.
	Gauge mem.Gauge
	// DisableSkip turns the skip index off (ablation; also the forced
	// behaviour on documents encoded without index records).
	DisableSkip bool
	// DisableCopy turns the copy-through fast path off (ablation).
	DisableCopy bool
}

// entry is one active NFA state instance on the token stack.
type entry struct {
	// m indexes the evaluator's machine table.
	m uint16
	// s is the active state.
	s automaton.StateID
	// tok is the predicate-instance token this entry feeds; 0 for
	// navigational-chain entries.
	tok TokenID
	// cond are the unresolved tokens this partial match is conditioned
	// on (predicates anchored along its path).
	cond []TokenID
}

// entryMem is the logical secure-memory charge of an entry (machine id,
// state id, token) plus 4 bytes per condition token.
const entryMem = 8

// frame is the per-open-element record of the paper's stacks: the active
// state set (token stack level), the node's decision (sign stack level),
// its query status, its output routing and the predicate instances
// anchored at it.
//
// Frames live in slots of Evaluator.frames that survive the pop: the
// backing arrays of entries and anchored are reused by the next element
// opened at that depth.
type frame struct {
	entries  []entry
	code     tagdict.Code
	ac       *decision
	q        *qmatch
	group    *outGroup
	mode     Mode
	anchored []TokenID
	memBytes int
	// attrPhase is true until the node's first non-attribute event.
	// Attribute pseudo-elements precede all other content (the SAX model
	// delivers attributes with the opening tag), so when the phase ends,
	// predicate chains that can only advance through this node's own
	// attributes are dead and their tokens can fail early.
	attrPhase bool
}

// frameMem is the logical base charge of a frame.
const frameMem = 16

// Evaluator is the streaming access-control engine. Feed it the document
// event stream via Open/Value/Close; it pushes the authorized output to
// the configured Emitter and returns skip instructions when the skip
// index proves a subtree irrelevant.
type Evaluator struct {
	// machines are the compiled rules, then the query; each slot keeps
	// its storage from one Reset to the next.
	machines    []automaton.Machine
	signs       []accessrule.Sign
	queryIdx    int // index into machines, -1 when no query
	defaultSign accessrule.Sign

	attrMask skipindex.Set
	emit     Emitter
	gauge    mem.Gauge
	res      resolver

	frames   []frame
	groupSeq GroupID

	// Storage that outlives one evaluation (see Reset): the slabs pending
	// state is drawn from, and Open's scratch lists.
	decisions  slab[decision]
	qmatches   slab[qmatch]
	groups     slab[outGroup]
	conds      condSlab
	direct     []instanceRec
	queryFired [][]TokenID
	negC, posC [][]TokenID

	// copyDepth > 0 means the evaluator is inside a copy-through region:
	// a definitively authorized, query-covered subtree where no automaton
	// can fire; events pass through without NFA work or frame growth.
	copyDepth int

	skipEnabled bool
	copyEnabled bool

	entriesLive int
	tokensFreed int
	stats       Stats
	finished    bool
	emitErr     error
}

// NewEvaluator compiles the rules (and query) against the dictionary and
// returns a ready evaluator. Compilation is the session-start work the
// SOE performs once per (document, subject) pair; its memory cost is
// charged to the gauge.
func NewEvaluator(cfg Config) (*Evaluator, error) {
	e := &Evaluator{}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-arms the evaluator for another document under cfg, exactly as
// NewEvaluator would build it, but inside the storage the evaluations
// before have grown: compiled automata, the attribute mask, frame slots,
// token and decision slabs, condition lists. An evaluator whose Reset
// failed must be Reset again before use.
func (e *Evaluator) Reset(cfg Config) error {
	if cfg.Rules == nil {
		return fmt.Errorf("core: Config.Rules is required")
	}
	if cfg.Dict == nil {
		return fmt.Errorf("core: Config.Dict is required")
	}
	if cfg.Emitter == nil {
		return fmt.Errorf("core: Config.Emitter is required")
	}
	if err := cfg.Rules.Validate(); err != nil {
		return err
	}
	gauge := cfg.Gauge
	if gauge == nil {
		gauge = mem.Nop{}
	}

	e.machines, e.signs = e.machines[:0], e.signs[:0]
	e.queryIdx = -1
	e.defaultSign = cfg.Rules.DefaultSign
	e.emit, e.gauge = cfg.Emitter, gauge
	e.skipEnabled, e.copyEnabled = !cfg.DisableSkip, !cfg.DisableCopy
	e.res.reset()
	e.frames = e.frames[:0]
	e.groupSeq, e.copyDepth = 0, 0
	e.decisions.reset()
	e.qmatches.reset()
	e.groups.reset()
	e.conds.reset()
	e.entriesLive, e.tokensFreed = 0, 0
	e.stats = Stats{}
	e.finished, e.emitErr = false, nil

	for _, r := range cfg.Rules.Rules {
		if err := e.compile(r.Object, cfg.Dict, r.Sign); err != nil {
			return fmt.Errorf("core: rule %q: %w", r.ID, err)
		}
	}
	if cfg.Query != nil {
		if err := e.compile(cfg.Query, cfg.Dict, accessrule.Permit); err != nil {
			return fmt.Errorf("core: query: %w", err)
		}
		e.queryIdx = len(e.machines) - 1
	}

	for i := range e.machines {
		if err := gauge.Alloc(e.machines[i].MemBytes()); err != nil {
			return fmt.Errorf("core: loading automata: %w", err)
		}
	}

	e.attrMask = e.attrMask.Reuse(cfg.Dict.Len())
	for i, name := range cfg.Dict.Names() {
		if len(name) > 0 && name[0] == '@' {
			e.attrMask.Add(tagdict.Code(i))
		}
	}
	if err := gauge.Alloc(e.attrMask.MemBytes()); err != nil {
		return fmt.Errorf("core: attribute mask: %w", err)
	}

	// Frame 0: the virtual document node. Its decision is the set's
	// default sign; its query status is "in" when there is no query.
	root := e.nextFrame()
	root.ac = e.definite(e.defaultSign)
	root.q = qIn
	root.mode = ModeStructure
	if e.queryIdx >= 0 {
		root.q = qOut
	}
	for mi := range e.machines {
		root.entries = append(root.entries, entry{m: uint16(mi), s: 0})
	}
	root.memBytes = frameMem + entryMem*len(root.entries)
	if err := gauge.Alloc(root.memBytes); err != nil {
		return fmt.Errorf("core: root frame: %w", err)
	}
	e.entriesLive = len(root.entries)
	e.frames = e.frames[:1]
	return nil
}

// compile appends the machine of path, under sign, to the machine table:
// into the slot past it, with the storage an earlier Reset left there.
func (e *Evaluator) compile(path *xpath.Path, dict *tagdict.Dict, sign accessrule.Sign) error {
	n := len(e.machines)
	if n == cap(e.machines) {
		e.machines = append(e.machines, automaton.Machine{})
	}
	e.machines = e.machines[:n+1]
	if _, err := automaton.CompileInto(&e.machines[n], path, dict); err != nil {
		return err
	}
	e.signs = append(e.signs, sign)
	return nil
}

// nextFrame returns the slot just past the frame stack, emptied, without
// pushing it: Open builds the new element's frame there and pushes it
// (e.frames[:len+1]) only once it knows the element is not skipped. It
// may move the stack, so pointers into e.frames are taken after it.
func (e *Evaluator) nextFrame() *frame {
	n := len(e.frames)
	if n == cap(e.frames) {
		e.frames = append(e.frames, frame{})[:n]
	}
	f := &e.frames[:n+1][n]
	*f = frame{entries: f.entries[:0], anchored: f.anchored[:0]}
	return f
}

// definite returns a fresh settled decision. Fresh, not shared: routeNode
// tells "same decision as the parent's" by identity, and a node with a
// direct rule has its own even when the sign is the parent's.
func (e *Evaluator) definite(sign accessrule.Sign) *decision {
	d := e.decisions.next()
	d.settle(sign)
	return d
}

// instanceRec is a rule instance fired at the current node.
type instanceRec struct {
	sign accessrule.Sign
	cond []TokenID
}

// Open processes an opening tag. meta, when non-nil, is the node's skip
// index record. The returned skip count is nonzero when the evaluator
// decided to skip the node's content: the caller must advance the encoded
// stream by that many bytes and must NOT report the node's Close (the
// evaluator has already retired the node).
func (e *Evaluator) Open(code tagdict.Code, meta *skipindex.NodeMeta) (skip int, err error) {
	if e.finished {
		return 0, fmt.Errorf("core: Open after Finish")
	}
	if e.emitErr != nil {
		return 0, e.emitErr
	}
	e.stats.Opens++
	if e.copyDepth > 0 {
		e.copyDepth++
		e.stats.CopiedEvents++
		e.stats.EmittedOpens++
		return 0, e.emit.EmitOpen(code, ModeDeliver, 0)
	}

	nf := e.nextFrame()
	top := &e.frames[len(e.frames)-1]
	if !e.attrMask.Has(code) {
		e.endAttrPhase(top)
	}
	nf.code, nf.attrPhase = code, true
	direct, queryFired := e.direct[:0], e.queryFired[:0]
	var sawQueryDef bool

	for i := range top.entries {
		en := &top.entries[i]
		st := &e.machines[en.m].States[en.s]
		if en.tok != 0 && e.res.tokenResolved(en.tok) {
			continue // settled predicate instance: chain is dead weight
		}
		if st.SelfLoop {
			nf.entries = append(nf.entries, *en)
			if en.tok != 0 {
				e.res.entryAdded(en.tok)
			}
		}
		for ti := range st.Trans {
			tr := &st.Trans[ti]
			e.stats.TransitionsScanned++
			if !e.transMatches(tr, code) {
				continue
			}
			e.stats.TransitionsTaken++
			tstate := &e.machines[en.m].States[tr.Target]
			cond := en.cond
			if len(tstate.StartPreds) > 0 {
				cond = append(e.conds.list(len(en.cond)+len(tstate.StartPreds)), en.cond...)
				for _, ps := range tstate.StartPreds {
					t := e.newToken()
					nf.anchored = append(nf.anchored, t)
					cond = append(cond, t)
					nf.entries = append(nf.entries, entry{m: en.m, s: ps.Start, tok: t})
					e.res.entryAdded(t)
				}
			}
			if tstate.NavFinal {
				if int(en.m) == e.queryIdx {
					if len(cond) == 0 {
						sawQueryDef = true
					} else {
						queryFired = append(queryFired, cond)
					}
				} else {
					direct = append(direct, instanceRec{sign: e.signs[en.m], cond: cond})
				}
			}
			if tstate.PredFinal >= 0 && tstate.Cmp == xpath.Exists {
				e.res.satisfy(en.tok, cond)
			}
			// Keep the target active only if it can still do something:
			// transition further, survive descents, or await a Value.
			if len(tstate.Trans) > 0 || tstate.SelfLoop ||
				(tstate.PredFinal >= 0 && tstate.Cmp != xpath.Exists) {
				nf.entries = append(nf.entries, entry{m: en.m, s: tr.Target, tok: en.tok, cond: cond})
				if en.tok != 0 {
					e.res.entryAdded(en.tok)
				}
			}
		}
	}

	// Rule suspension (Section 2.3: the index detects "rules and queries
	// that cannot apply inside a given subtree", and rules "may be
	// inhibited [...] thereby optimizations such as suspending
	// evaluations of rules can be devised"): every entry of the new frame
	// only ever sees events of this node's subtree, so an entry whose
	// remaining chain needs tags the subtree lacks is dead — drop it.
	// Predicate instances losing their last entry fail right here, which
	// is what settles decisions early enough to skip whole subtrees.
	e.direct, e.queryFired = direct, queryFired // keep what the lists grew to
	if e.skipEnabled && meta != nil {
		e.cullDead(nf, meta)
	}

	nf.ac = e.decideNode(top, direct)
	nf.q = e.decideQuery(top, queryFired, sawQueryDef)
	nf.mode, nf.group = e.routeNode(top, nf.ac, nf.q)

	// Skip decision (Section 2.3: "skip this subtree if it turns out to
	// be forbidden or irrelevant wrt the query"). Two sound cases:
	//
	//   - definite denial: skippable unless a positive rule could fire
	//     inside (most-specific re-grant) or a predicate instance could
	//     progress inside;
	//   - definitely outside the query: nothing inside can ever be
	//     delivered, so only the query's own automaton (a match would
	//     cover descendants) or predicate progress can block the skip.
	if e.skipEnabled && meta != nil {
		skippable := false
		switch {
		case nf.ac.definite && nf.ac.sign == accessrule.Deny:
			skippable = e.canPrune(nf.entries, meta, func(m int) bool {
				return m != e.queryIdx && e.signs[m] == accessrule.Permit
			})
		case nf.q.definite && !nf.q.in:
			skippable = e.canPrune(nf.entries, meta, func(m int) bool {
				return m == e.queryIdx
			})
		}
		if skippable {
			for i := range nf.entries {
				if t := nf.entries[i].tok; t != 0 {
					e.res.entryRemoved(t)
				}
			}
			for _, t := range nf.anchored {
				e.res.fail(t)
			}
			e.settle()
			e.stats.SkippedSubtrees++
			e.stats.SkippedBytes += int64(meta.ContentSize)
			return meta.ContentSize, nil
		}
	}

	nf.memBytes = frameMem + 4*len(nf.anchored)
	for i := range nf.entries {
		nf.memBytes += entryMem + 4*len(nf.entries[i].cond)
	}
	if err := e.gauge.Alloc(nf.memBytes); err != nil {
		return 0, fmt.Errorf("core: depth %d: %w", len(e.frames), err)
	}
	e.entriesLive += len(nf.entries)
	if e.entriesLive > e.stats.EntriesPeak {
		e.stats.EntriesPeak = e.entriesLive
	}
	e.frames = e.frames[:len(e.frames)+1] // push nf
	if d := len(e.frames) - 1; d > e.stats.MaxDepth {
		e.stats.MaxDepth = d
	}

	e.settle()
	var groupID GroupID
	if nf.group != nil {
		groupID = nf.group.id
	}
	e.stats.EmittedOpens++
	if err := e.emit.EmitOpen(code, nf.mode, groupID); err != nil {
		return 0, err
	}

	// Copy-through: inside a definitively delivered region where neither
	// a negative rule nor a predicate chain can fire, the automata are
	// idle; forward events directly.
	if e.copyEnabled && meta != nil && nf.mode == ModeDeliver &&
		e.canPrune(nf.entries, meta, func(m int) bool {
			return m != e.queryIdx && e.signs[m] == accessrule.Deny
		}) {
		e.copyDepth = 1
	}
	return 0, nil
}

// Value processes a text event. text is read during the call only (and
// handed to the emitter under the same terms).
func (e *Evaluator) Value(text []byte) error {
	if e.finished {
		return fmt.Errorf("core: Value after Finish")
	}
	e.stats.Values++
	if e.copyDepth > 0 {
		e.stats.CopiedEvents++
		e.stats.CopiedBytes += int64(len(text))
		e.stats.EmittedValues++
		return e.emit.EmitValue(text, ModeDeliver, 0)
	}
	if len(e.frames) <= 1 {
		return fmt.Errorf("core: Value outside the document root")
	}
	top := &e.frames[len(e.frames)-1]
	e.endAttrPhase(top)

	touched := false
	for i := range top.entries {
		en := &top.entries[i]
		st := &e.machines[en.m].States[en.s]
		if st.PredFinal < 0 || st.Cmp == xpath.Exists {
			continue
		}
		if en.tok == 0 || e.res.tokenResolved(en.tok) {
			continue
		}
		match := false
		switch st.Cmp {
		case xpath.Eq:
			match = string(text) == st.CmpValue
		case xpath.Neq:
			match = string(text) != st.CmpValue
		}
		if match {
			e.res.satisfy(en.tok, en.cond)
			touched = true
		}
	}
	if touched {
		e.settle()
	}

	switch top.mode {
	case ModeDeliver:
		e.stats.EmittedValues++
		return e.emit.EmitValue(text, ModeDeliver, 0)
	case ModePending:
		e.stats.EmittedValues++
		return e.emit.EmitValue(text, ModePending, top.group.id)
	default:
		return nil // structural nodes never deliver text
	}
}

// CanChunkValues reports whether the current node's text may be delivered
// in arbitrary pieces (multiple Value calls) without changing semantics.
// It is false only while an unresolved value comparison is active in the
// current frame — splitting text would break the equality test; in every
// other state text only flows to the output, where adjacent pieces are
// indistinguishable from one node. This is what lets the SOE forward
// values larger than its working memory.
func (e *Evaluator) CanChunkValues() bool {
	if e.copyDepth > 0 {
		return true
	}
	if len(e.frames) <= 1 {
		return true
	}
	top := &e.frames[len(e.frames)-1]
	for i := range top.entries {
		en := &top.entries[i]
		st := &e.machines[en.m].States[en.s]
		if st.PredFinal >= 0 && st.Cmp != xpath.Exists &&
			en.tok != 0 && !e.res.tokenResolved(en.tok) {
			return false
		}
	}
	return true
}

// NeedsValues reports whether the current node's text matters at all:
// either it will be emitted (delivered or pending), or an unresolved
// comparison must inspect it. When false, the SOE may skip value bytes
// outright — neither transferring nor decrypting them — because
// structural nodes never deliver text.
func (e *Evaluator) NeedsValues() bool {
	if e.copyDepth > 0 {
		return true
	}
	if len(e.frames) <= 1 {
		return true
	}
	top := &e.frames[len(e.frames)-1]
	if top.mode != ModeStructure {
		return true
	}
	for i := range top.entries {
		en := &top.entries[i]
		st := &e.machines[en.m].States[en.s]
		if st.PredFinal >= 0 && st.Cmp != xpath.Exists &&
			en.tok != 0 && !e.res.tokenResolved(en.tok) {
			return true
		}
	}
	return false
}

// SkipValue records a value suppressed without inspection (the caller
// skipped its bytes in the encoded stream).
func (e *Evaluator) SkipValue(n int) {
	e.stats.Values++
	e.stats.ValueBytesSkipped += int64(n)
}

// Close processes a closing tag.
func (e *Evaluator) Close() error {
	if e.finished {
		return fmt.Errorf("core: Close after Finish")
	}
	e.stats.Closes++
	if e.copyDepth > 1 {
		e.copyDepth--
		e.stats.CopiedEvents++
		e.stats.EmittedCloses++
		return e.emit.EmitClose(ModeDeliver, 0)
	}
	e.copyDepth = 0
	if len(e.frames) <= 1 {
		return fmt.Errorf("core: unbalanced Close")
	}
	top := &e.frames[len(e.frames)-1]

	var groupID GroupID
	if top.group != nil {
		groupID = top.group.id
	}
	e.stats.EmittedCloses++
	if err := e.emit.EmitClose(top.mode, groupID); err != nil {
		return err
	}

	// The node is over: predicates anchored here that never completed
	// have definitively failed, and its entries go out of scope.
	for _, t := range top.anchored {
		e.res.fail(t)
	}
	for i := range top.entries {
		if t := top.entries[i].tok; t != 0 {
			e.res.entryRemoved(t)
		}
	}
	e.entriesLive -= len(top.entries)
	e.gauge.Free(top.memBytes)
	e.frames = e.frames[:len(e.frames)-1]
	e.settle()
	return nil
}

// Finish verifies the stream ended balanced with every pending group
// resolved, and releases session memory.
func (e *Evaluator) Finish() error {
	if e.finished {
		return nil
	}
	if e.emitErr != nil {
		return e.emitErr
	}
	if len(e.frames) != 1 {
		return fmt.Errorf("core: document ended with %d open element(s)", len(e.frames)-1)
	}
	e.settle()
	if e.emitErr != nil {
		return e.emitErr
	}
	if err := e.res.checkAllResolved(); err != nil {
		return err
	}
	e.finished = true
	return nil
}

// Stats returns the work counters accumulated so far.
func (e *Evaluator) Stats() Stats { return e.stats }

// decideNode computes the node's authorization decision from the direct
// rule instances and the parent decision, implementing both conflict
// resolution policies (see the decision type).
func (e *Evaluator) decideNode(parent *frame, direct []instanceRec) *decision {
	if len(direct) == 0 {
		return parent.ac
	}
	negC, posC := e.negC[:0], e.posC[:0]
	defPos := false
	for _, in := range direct {
		if in.sign == accessrule.Deny {
			if len(in.cond) == 0 {
				return e.definite(accessrule.Deny)
			}
			negC = append(negC, in.cond)
		} else {
			if len(in.cond) == 0 {
				defPos = true
			} else {
				posC = append(posC, in.cond)
			}
		}
	}
	if len(negC) == 0 && defPos {
		return e.definite(accessrule.Permit)
	}
	if defPos {
		posC = append(posC, nil) // an always-true positive candidate
	}
	e.negC, e.posC = negC, posC
	d := e.decisions.next()
	d.definite, d.sign, d.parent = false, 0, parent.ac
	d.negCands = append(d.negCands[:0], negC...)
	d.posCands = append(d.posCands[:0], posC...)
	if sign, ok := e.res.evalDecision(d); ok {
		d.settle(sign) // at birth: the slot just taken is the definite decision
		return d
	}
	e.res.pendingDecisions = append(e.res.pendingDecisions, d)
	_ = e.gauge.Alloc(decisionMem) // budget failures surface on frames
	return d
}

// decideQuery computes the node's query-match status.
func (e *Evaluator) decideQuery(parent *frame, fired [][]TokenID, def bool) *qmatch {
	if e.queryIdx < 0 {
		return qIn
	}
	if parent.q.definite && parent.q.in {
		return qIn
	}
	if def {
		return qIn
	}
	if len(fired) == 0 {
		return parent.q
	}
	probe := qmatch{cands: fired, parent: parent.q}
	if in, ok := e.res.evalQMatch(&probe); ok {
		if in {
			return qIn
		}
		return qOut
	}
	q := e.qmatches.next()
	q.definite, q.in, q.parent = false, false, parent.q
	q.cands = append(q.cands[:0], fired...)
	e.res.pendingQMatches = append(e.res.pendingQMatches, q)
	_ = e.gauge.Alloc(decisionMem)
	return q
}

// routeNode derives the node's output mode and pending group.
func (e *Evaluator) routeNode(parent *frame, ac *decision, q *qmatch) (Mode, *outGroup) {
	switch {
	case ac.definite && ac.sign == accessrule.Deny:
		return ModeStructure, nil
	case ac.definite && ac.sign == accessrule.Permit:
		if q.definite {
			if q.in {
				return ModeDeliver, nil
			}
			return ModeStructure, nil
		}
	default:
		if q.definite && !q.in {
			return ModeStructure, nil
		}
	}
	// Pending: share the parent's group when the context is unchanged.
	if parent.mode == ModePending && parent.ac == ac && parent.q == q {
		return ModePending, parent.group
	}
	e.groupSeq++
	g := e.groups.next()
	*g = outGroup{id: e.groupSeq, ac: ac, q: q}
	e.res.pendingGroups = append(e.res.pendingGroups, g)
	e.stats.GroupsCreated++
	_ = e.gauge.Alloc(groupMem)
	return ModePending, g
}

// canPrune reports whether, given the subtree's tag set, no automaton can
// make relevant progress inside it. navBlocks selects which machines'
// navigational completions are relevant: positive rules when skipping
// under a denial, the query when skipping outside the query, negative
// rules when entering copy-through. Unresolved predicate chains always
// block (their resolution can affect pending decisions anywhere), as do
// unresolved value comparisons (the index says nothing about text).
func (e *Evaluator) canPrune(entries []entry, meta *skipindex.NodeMeta, navBlocks func(machine int) bool) bool {
	for i := range entries {
		en := &entries[i]
		st := &e.machines[en.m].States[en.s]
		if en.tok != 0 {
			if e.res.tokenResolved(en.tok) {
				continue // settled instance, chain inert
			}
			// An unresolved comparison awaits a Value event, which the
			// index cannot rule out.
			if st.PredFinal >= 0 && st.Cmp != xpath.Exists {
				return false
			}
		}
		for ti := range st.Trans {
			req := st.FireReqs[ti]
			if !req.Possible || !req.Codes.SubsetOf(meta.Tags) {
				continue
			}
			if en.tok != 0 {
				return false // a predicate chain could complete inside
			}
			if navBlocks(int(en.m)) {
				return false
			}
		}
	}
	return true
}

// cullDead removes new-frame entries that cannot make any progress within
// the subtree described by meta. An entry is alive if it awaits a value
// comparison, or if some transition's completion requirement is satisfied
// by the subtree's tag set.
func (e *Evaluator) cullDead(nf *frame, meta *skipindex.NodeMeta) {
	kept := nf.entries[:0]
	changed := false
	for i := range nf.entries {
		en := nf.entries[i]
		st := &e.machines[en.m].States[en.s]
		alive := false
		if st.PredFinal >= 0 && st.Cmp != xpath.Exists &&
			en.tok != 0 && !e.res.tokenResolved(en.tok) {
			alive = true
		}
		if !alive {
			for ti := range st.FireReqs {
				req := &st.FireReqs[ti]
				if req.Possible && req.Codes.SubsetOf(meta.Tags) {
					alive = true
					break
				}
			}
		}
		if alive {
			kept = append(kept, en)
			continue
		}
		e.stats.EntriesSuspended++
		if en.tok != 0 {
			e.res.entryRemoved(en.tok)
			changed = true
		}
	}
	nf.entries = kept
	if changed {
		e.settle()
	}
}

// endAttrPhase closes a frame's attribute phase: predicate-chain entries
// that can only advance through this node's own attributes are culled,
// possibly failing their tokens early (see token.live).
func (e *Evaluator) endAttrPhase(f *frame) {
	if !f.attrPhase {
		return
	}
	f.attrPhase = false
	removed := 0
	kept := f.entries[:0]
	for i := range f.entries {
		en := f.entries[i]
		if en.tok != 0 && !e.res.tokenResolved(en.tok) && e.attrBound(&en) {
			removed += entryMem + 4*len(en.cond)
			e.res.entryRemoved(en.tok)
			continue
		}
		kept = append(kept, en)
	}
	if removed == 0 {
		return
	}
	e.entriesLive -= len(f.entries) - len(kept)
	f.entries = kept
	f.memBytes -= removed
	e.gauge.Free(removed)
	e.settle()
}

// attrBound reports whether the entry's state can only progress through
// attribute opens of the current node (no self-loop, no pending value
// comparison, and every transition tests an attribute or nothing).
func (e *Evaluator) attrBound(en *entry) bool {
	st := &e.machines[en.m].States[en.s]
	if st.SelfLoop || len(st.Trans) == 0 {
		return false
	}
	if st.PredFinal >= 0 && st.Cmp != xpath.Exists {
		return false
	}
	for ti := range st.Trans {
		switch st.Trans[ti].Kind {
		case automaton.WildAttr, automaton.Never:
			// attribute-only or dead: cullable
		case automaton.Exact:
			if !e.attrMask.Has(st.Trans[ti].Code) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// settle runs token propagation and resolves every group that settled,
// informing the emitter.
func (e *Evaluator) settle() {
	e.res.propagate()

	// Release the secure memory of freshly resolved tokens.
	if n := e.res.resolved - e.tokensFreed; n > 0 {
		e.gauge.Free(n * tokenMem)
		e.tokensFreed = e.res.resolved
	}

	// Collapse settled decisions and query matches so later evaluations
	// are O(1) and their memory is released.
	keptD := e.res.pendingDecisions[:0]
	for _, d := range e.res.pendingDecisions {
		if sign, ok := e.res.evalDecision(d); ok {
			d.settle(sign)
			e.gauge.Free(decisionMem)
		} else {
			keptD = append(keptD, d)
		}
	}
	e.res.pendingDecisions = keptD

	keptQ := e.res.pendingQMatches[:0]
	for _, q := range e.res.pendingQMatches {
		if in, ok := e.res.evalQMatch(q); ok {
			q.definite = true
			q.in = in
			q.cands, q.parent = q.cands[:0], nil
			e.gauge.Free(decisionMem)
		} else {
			keptQ = append(keptQ, q)
		}
	}
	e.res.pendingQMatches = keptQ

	keptG := e.res.pendingGroups[:0]
	for _, g := range e.res.pendingGroups {
		if g.emitted {
			continue
		}
		if deliver, ok := e.res.evalGroup(g); ok {
			g.emitted = true
			e.gauge.Free(groupMem)
			if err := e.emit.ResolveGroup(g.id, deliver); err != nil && e.emitErr == nil {
				e.emitErr = err
			}
			continue
		}
		keptG = append(keptG, g)
	}
	e.res.pendingGroups = keptG
}

// newToken issues a token and charges its memory.
func (e *Evaluator) newToken() TokenID {
	t := e.res.newToken()
	e.stats.TokensCreated++
	_ = e.gauge.Alloc(tokenMem)
	return t
}

// transMatches applies a transition's node test to a tag code.
func (e *Evaluator) transMatches(tr *automaton.Transition, code tagdict.Code) bool {
	switch tr.Kind {
	case automaton.Exact:
		return tr.Code == code
	case automaton.WildElem:
		return !e.attrMask.Has(code)
	case automaton.WildAttr:
		return e.attrMask.Has(code)
	default:
		return false
	}
}
