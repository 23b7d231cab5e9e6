package core

import (
	"fmt"

	"repro/internal/tagdict"
)

// Mode classifies how an emitted event may be used by the terminal.
type Mode uint8

// Event delivery modes.
const (
	// ModeDeliver: the event is part of the authorized result.
	ModeDeliver Mode = iota
	// ModeStructure: the event is a bare structural tag; it must appear
	// in the result only if needed to enclose delivered content, and its
	// values are never delivered (the evaluator suppresses them).
	ModeStructure
	// ModePending: delivery depends on a pending group; the terminal
	// buffers the event until the group resolves. On "discard", open and
	// close events degrade to ModeStructure and value events vanish.
	ModePending
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDeliver:
		return "deliver"
	case ModeStructure:
		return "structure"
	case ModePending:
		return "pending"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Emitter receives the evaluator's output: the card-to-terminal protocol.
// Events are in tag-code space; the terminal resolves names through the
// session dictionary.
type Emitter interface {
	// EmitOpen reports an element or attribute opening. group is nonzero
	// only for ModePending.
	EmitOpen(code tagdict.Code, mode Mode, group GroupID) error
	// EmitValue reports character data. Never called with ModeStructure.
	// text is only valid during the call (it is a view of the card's
	// input window): an emitter keeps what it needs by copying.
	EmitValue(text []byte, mode Mode, group GroupID) error
	// EmitClose reports the closing of the innermost open element,
	// mirroring the mode and group of its open. The terminal tracks the
	// element stack itself, so no code is transmitted (the card protocol
	// saves those bytes, as the real applet does).
	EmitClose(mode Mode, group GroupID) error
	// ResolveGroup settles a pending group: deliver commits its events,
	// !deliver discards values and degrades tags to structure.
	ResolveGroup(group GroupID, deliver bool) error
}

// Discard is an Emitter that drops everything: engine-only benchmarks
// measure pure evaluation cost with it.
type Discard struct{}

// EmitOpen implements Emitter.
func (Discard) EmitOpen(tagdict.Code, Mode, GroupID) error { return nil }

// EmitValue implements Emitter.
func (Discard) EmitValue([]byte, Mode, GroupID) error { return nil }

// EmitClose implements Emitter.
func (Discard) EmitClose(Mode, GroupID) error { return nil }

// ResolveGroup implements Emitter.
func (Discard) ResolveGroup(GroupID, bool) error { return nil }

// Stats counts the work done during one document evaluation; the
// experiment harness reads them and the card simulator prices them.
type Stats struct {
	// Opens, Values, Closes count input events processed (post-skip).
	Opens, Values, Closes int
	// TransitionsScanned counts automaton transitions examined.
	TransitionsScanned int
	// TransitionsTaken counts transitions that matched.
	TransitionsTaken int
	// EntriesPeak is the maximum number of active NFA state entries
	// across all frames at any point (the paper's token-stack width).
	EntriesPeak int
	// TokensCreated counts predicate instances.
	TokensCreated int
	// GroupsCreated counts pending output groups.
	GroupsCreated int
	// EntriesSuspended counts NFA entries dropped because the skip index
	// proved their chains cannot complete inside the current subtree
	// (the paper's rule-suspension optimization).
	EntriesSuspended int
	// SkippedSubtrees counts subtrees skipped via the skip index.
	SkippedSubtrees int
	// SkippedBytes totals the encoded bytes never parsed thanks to skips.
	SkippedBytes int64
	// ValueBytesSkipped totals text bytes of structural nodes jumped over
	// without decryption (value skipping).
	ValueBytesSkipped int64
	// CopiedEvents counts events forwarded in copy-through mode (inside a
	// definitively authorized region where no automaton can fire).
	CopiedEvents int
	// CopiedBytes counts text bytes forwarded in copy-through mode.
	CopiedBytes int64
	// MaxDepth is the deepest element nesting seen.
	MaxDepth int
	// EmittedOpens/Values/Closes count emitted output events.
	EmittedOpens, EmittedValues, EmittedCloses int
}
