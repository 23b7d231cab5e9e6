// Package core implements the paper's primary contribution: a streaming
// evaluator of access-control rules (and an optional query) over the
// open/value/close event stream of an encrypted XML document, designed to
// run inside a Secure Operating Environment with ~1 KB of working memory.
//
// The evaluator follows Section 2.3 of the paper:
//
//   - each rule (and the query) is a non-deterministic automaton
//     (internal/automaton);
//   - a stack of frames tracks the active automaton states, one frame per
//     open element ("a stack that keeps track of active states,
//     materializing all the possible paths that can be followed on the
//     non-deterministic automata");
//   - a predicate set records satisfied predicate instances ("a predicate
//     set which records all the final states of predicates that have been
//     reached");
//   - rules whose navigational final state is reached while predicates
//     are unresolved are *pending*: the affected events are emitted
//     tagged with a pending group that is later resolved to commit or
//     discard ("the rule is said to be pending, meaning that the nodes
//     upon which it applies are to be delivered only if, later on in the
//     parsing, all the predicate paths are found to reach their final
//     states");
//   - propagation and conflicts are managed with a decision stack
//     generalizing the paper's sign stack ("propagation of rules as well
//     as conflicts are managed with a sign stack which keeps on the top
//     the current sign that is propagated if no other rule applies");
//   - the skip index is consulted on every indexed open to skip subtrees
//     where nothing can fire.
//
// This file contains the condition machinery: predicate-instance tokens,
// tri-state authorization decisions, query-match states, and the output
// pending groups with their resolution engine.
package core

import (
	"fmt"

	"repro/internal/accessrule"
)

// TokenID identifies a predicate instance: one predicate chain anchored
// at one specific node. Token 0 is reserved (never issued), so nav-chain
// frame entries can use 0 as "no token".
type TokenID uint32

// GroupID identifies a pending output group. Group 0 means "no group"
// (the event's mode is definite).
type GroupID uint32

// tokenState is the lifecycle of a predicate instance.
type tokenState uint8

const (
	tokenUnresolved tokenState = iota
	tokenTrue                  // predicate satisfied within its anchor's subtree
	tokenFalse                 // anchor closed without satisfaction
)

// token is one predicate instance. A token resolves true as soon as its
// predicate chain completes (monotone: once a child matching [c] is seen,
// the predicate holds for good within the anchor), and false when the
// anchor node closes unsatisfied.
type token struct {
	state tokenState
	// cands holds conditional satisfactions: a predicate chain that
	// completed while itself depending on nested predicate instances
	// (e.g. [a[b]/c]) records the nested tokens here; the token turns
	// true when any candidate set is fully true. Emptied by truncation:
	// the backing array stays with the slot for the next evaluation.
	cands [][]TokenID
	// live counts the active NFA entries carrying this token. When it
	// drops to zero with no candidates, no future event can satisfy the
	// predicate, so the token fails early — which is what lets the
	// evaluator settle decisions (and skip subtrees) before the anchor
	// node closes.
	live int
}

// tokenMem is the logical per-token secure-memory charge (state byte,
// live count, candidate list head in a packed card layout).
const tokenMem = 8

// decision is the tri-state authorization status of a node: a definite
// sign, or a pending expression over predicate-instance tokens.
//
// The final sign of a pending decision is:
//
//	'-'  if any negCand becomes fully true   (Denial-Takes-Precedence)
//	'+'  else if any posCand becomes fully true
//	parent's final sign otherwise            (no direct rule materialized,
//	                                          Most-Specific + propagation)
//
// A definite direct rule contributes an empty candidate set (immediately
// true); nodes without direct rules share their parent's decision object.
type decision struct {
	definite bool
	sign     accessrule.Sign

	negCands [][]TokenID
	posCands [][]TokenID
	parent   *decision
}

// settle makes the decision definite. Its candidate lists are emptied by
// truncation: the backing arrays stay with the slot (see slab).
func (d *decision) settle(sign accessrule.Sign) {
	d.definite, d.sign, d.parent = true, sign, nil
	d.negCands, d.posCands = d.negCands[:0], d.posCands[:0]
}

// decisionMem is the logical base charge of a pending decision.
const decisionMem = 16

// qmatch is the query-relevance status of a node: whether it lies inside
// (the subtree of) a node matched by the session query. Like decision it
// is tri-state: definitely in, definitely out, or pending on the tokens
// of conditional query-match instances.
type qmatch struct {
	definite bool
	in       bool

	// cands are the condition sets of query instances fired at this node.
	cands [][]TokenID
	// parent is the enclosing node's status (a node is also in a match if
	// an ancestor is).
	parent *qmatch
}

var (
	qIn  = &qmatch{definite: true, in: true}
	qOut = &qmatch{definite: true, in: false}
)

// outGroup is a pending output group: the unit of deferred delivery the
// terminal buffers. All events of nodes sharing the same (decision,
// qmatch) pair are tagged with the same group; the group resolves to
// "deliver" iff the decision resolves Permit and the query match resolves
// in.
type outGroup struct {
	id      GroupID
	ac      *decision
	q       *qmatch
	emitted bool
}

// groupMem is the logical per-group secure-memory charge.
const groupMem = 8

// slab hands out slots of T whose addresses stay put (frames, groups and
// pending lists point at decisions and query matches) and takes them all
// back at once on reset. A slot comes back as its last user left it: the
// taker overwrites every field, truncating rather than dropping slices so
// that their backing arrays are reused too.
type slab[T any] struct {
	chunks [][]T
	n      int // slots handed out since the last reset
}

// slabChunk is the number of slots a slab grows by.
const slabChunk = 32

func (s *slab[T]) next() *T {
	ci, i := s.n/slabChunk, s.n%slabChunk
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	s.n++
	return &s.chunks[ci][i]
}

func (s *slab[T]) reset() { s.n = 0 }

// condSlab is the bump allocator of condition lists. A list is built once
// (capacity exactly what its builder asked for) and then only read, by
// frame entries, pending decisions and token candidates alike, until the
// next evaluation resets the slab.
type condSlab struct {
	chunks [][]TokenID
	ci     int // chunk being filled
}

// condChunk is the number of tokens a condSlab grows by.
const condChunk = 256

// list returns an empty list with room for n tokens.
func (s *condSlab) list(n int) []TokenID {
	for ; s.ci < len(s.chunks); s.ci++ {
		if c := s.chunks[s.ci]; cap(c)-len(c) >= n {
			s.chunks[s.ci] = c[:len(c)+n]
			return c[len(c) : len(c) : len(c)+n]
		}
	}
	c := make([]TokenID, n, max(n, condChunk))
	s.chunks = append(s.chunks, c)
	return c[0:0:n]
}

func (s *condSlab) reset() {
	for i := range s.chunks {
		s.chunks[i] = s.chunks[i][:0]
	}
	s.ci = 0
}

// resolver owns tokens, pending decisions/qmatches/groups, and runs
// resolution to fixpoint after every token event.
type resolver struct {
	tokens []token // index 0 reserved; slots past len keep their cands backing

	pendingTokens    []TokenID // tokens with conditional candidates
	pendingDecisions []*decision
	pendingQMatches  []*qmatch
	pendingGroups    []*outGroup

	// resolved counts tokens that reached a final state; the evaluator
	// uses it to release their secure-memory charge.
	resolved int
}

// reset empties the resolver for another evaluation, keeping its storage.
func (r *resolver) reset() {
	if len(r.tokens) == 0 {
		r.tokens = append(r.tokens, token{})
	}
	r.tokens = r.tokens[:1] // slot 0 reserved
	r.pendingTokens = r.pendingTokens[:0]
	r.pendingDecisions = r.pendingDecisions[:0]
	r.pendingQMatches = r.pendingQMatches[:0]
	r.pendingGroups = r.pendingGroups[:0]
	r.resolved = 0
}

// newToken issues a fresh unresolved token, in the slot (and with the
// candidate list backing) an earlier evaluation left if there is one.
func (r *resolver) newToken() TokenID {
	n := len(r.tokens)
	if n < cap(r.tokens) {
		r.tokens = r.tokens[:n+1]
		r.tokens[n] = token{cands: r.tokens[n].cands[:0]}
	} else {
		r.tokens = append(r.tokens, token{})
	}
	return TokenID(n)
}

func (r *resolver) tokenResolved(t TokenID) bool {
	return r.tokens[t].state != tokenUnresolved
}

func (r *resolver) tokenTrue(t TokenID) bool {
	return r.tokens[t].state == tokenTrue
}

// satisfy records a completion of the token's predicate chain, under the
// given nested-condition set (nil = unconditional).
func (r *resolver) satisfy(t TokenID, cond []TokenID) {
	tok := &r.tokens[t]
	if tok.state != tokenUnresolved {
		return
	}
	if allTrue(r, cond) {
		tok.state = tokenTrue
		r.resolved++
		return
	}
	if anyFalse(r, cond) {
		return // this candidate can never materialize
	}
	// No copy: condition lists live in the evaluator's slab, immutable
	// until the next evaluation.
	tok.cands = append(tok.cands, cond)
	r.pendingTokens = append(r.pendingTokens, t)
}

// fail marks the token false. Called when its anchor closes unresolved.
func (r *resolver) fail(t TokenID) {
	if r.tokens[t].state == tokenUnresolved {
		r.tokens[t].state = tokenFalse
		r.tokens[t].cands = r.tokens[t].cands[:0]
		r.resolved++
	}
}

// entryAdded records that an NFA entry carrying the token went live.
func (r *resolver) entryAdded(t TokenID) {
	r.tokens[t].live++
}

// entryRemoved records that an NFA entry carrying the token disappeared
// (frame pop, attribute-phase cull, or discarded skip frame). When the
// last entry of an unresolved, candidate-free token goes away, no future
// event can satisfy it: it fails now rather than at anchor close.
func (r *resolver) entryRemoved(t TokenID) {
	tok := &r.tokens[t]
	if tok.live > 0 {
		tok.live--
	}
	if tok.live == 0 && tok.state == tokenUnresolved && len(tok.cands) == 0 {
		r.fail(t)
	}
}

// propagate resolves conditional tokens to fixpoint. Group resolution is
// driven by the evaluator (which owns the emitter); propagate only
// settles token states.
func (r *resolver) propagate() {
	for changed := true; changed; {
		changed = false
		kept := r.pendingTokens[:0]
		for _, t := range r.pendingTokens {
			tok := &r.tokens[t]
			if tok.state != tokenUnresolved {
				continue
			}
			settled := false
			for _, cand := range tok.cands {
				if allTrue(r, cand) {
					tok.state = tokenTrue
					tok.cands = tok.cands[:0]
					r.resolved++
					settled = true
					changed = true
					break
				}
			}
			if !settled {
				kept = append(kept, t)
			}
		}
		r.pendingTokens = kept
	}
}

// evalDecision attempts to settle a pending decision. It returns the sign
// and true when settled.
func (r *resolver) evalDecision(d *decision) (accessrule.Sign, bool) {
	if d.definite {
		return d.sign, true
	}
	anyNeg, allNegDead := evalCands(r, d.negCands)
	if anyNeg {
		return accessrule.Deny, true
	}
	if !allNegDead {
		return 0, false
	}
	anyPos, allPosDead := evalCands(r, d.posCands)
	if anyPos {
		return accessrule.Permit, true
	}
	if !allPosDead {
		return 0, false
	}
	if d.parent == nil {
		// Cannot happen: the root decision is always definite.
		return accessrule.Deny, true
	}
	return r.evalDecision(d.parent)
}

// evalQMatch attempts to settle a query-match status.
func (r *resolver) evalQMatch(q *qmatch) (bool, bool) {
	if q.definite {
		return q.in, true
	}
	anyIn, allDead := evalCands(r, q.cands)
	if anyIn {
		return true, true
	}
	if !allDead {
		return false, false
	}
	if q.parent == nil {
		return false, true
	}
	return r.evalQMatch(q.parent)
}

// evalGroup attempts to settle a group. It returns (deliver, settled).
func (r *resolver) evalGroup(g *outGroup) (bool, bool) {
	sign, okD := r.evalDecision(g.ac)
	if okD && sign == accessrule.Deny {
		return false, true // denial needs no query answer
	}
	in, okQ := r.evalQMatch(g.q)
	if okQ && !in {
		return false, true // out-of-query needs no authorization answer
	}
	if okD && okQ {
		return sign == accessrule.Permit && in, true
	}
	return false, false
}

// evalCands evaluates an OR-of-AND-sets: (anyTrue, allDead). anyTrue means
// some candidate is fully true; allDead means every candidate contains a
// false token (can never materialize).
func evalCands(r *resolver, cands [][]TokenID) (anyTrue, allDead bool) {
	allDead = true
	for _, cand := range cands {
		if allTrue(r, cand) {
			return true, false
		}
		if !anyFalse(r, cand) {
			allDead = false
		}
	}
	return false, allDead
}

func allTrue(r *resolver, cond []TokenID) bool {
	for _, t := range cond {
		if !r.tokenTrue(t) {
			return false
		}
	}
	return true
}

func anyFalse(r *resolver, cond []TokenID) bool {
	for _, t := range cond {
		if r.tokens[t].state == tokenFalse {
			return true
		}
	}
	return false
}

// checkAllResolved verifies at end of document that nothing is left
// unresolved; a leftover indicates an evaluator bug.
func (r *resolver) checkAllResolved() error {
	for i := 1; i < len(r.tokens); i++ {
		if r.tokens[i].state == tokenUnresolved {
			return fmt.Errorf("core: token %d unresolved at end of document", i)
		}
	}
	for _, g := range r.pendingGroups {
		if !g.emitted {
			return fmt.Errorf("core: group %d unresolved at end of document", g.id)
		}
	}
	return nil
}
