package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tagdict"
)

// Assembler is the terminal-side consumer of the evaluator's output
// protocol: it buffers pending events until their groups resolve and
// reassembles the authorized result in document order.
//
// The paper keeps the SOE small by pushing this buffering outside the
// card: "the nodes upon which [a pending rule] applies are to be
// delivered only if, later on in the parsing, all the predicate paths are
// found to reach their final states" — the card tags those nodes with a
// group, the terminal holds them, and a later resolution message commits
// or discards them. Note what the terminal buffers is *candidate* output
// the card chose to release under a pending status; content that is
// definitively forbidden never leaves the card.
//
// The buffer is an arena, not a tree: one preorder slab of nodes linked
// by parent and subtree-end indices, and one byte slab the text of every
// value is appended to. Reset keeps both, so an Assembler that lives
// with a pooled session regrows nothing from its second query on.
type Assembler struct {
	names NameResolver
	nodes []anode
	text  []byte
	// cur is the innermost open element (-1 outside the root).
	cur int32
	// groups records every group seen in an event or resolved.
	groups map[GroupID]groupState
	err    error

	// pendingEvents / pendingBytes measure the terminal-side buffering
	// the pending mechanism costs (experiment E6): how much candidate
	// output sat in the buffer awaiting a resolution.
	pendingEvents int
	pendingBytes  int64
}

// PendingLoad reports how many events (and text bytes) were buffered in
// pending state over the whole session.
func (a *Assembler) PendingLoad() (events int, bytes int64) {
	return a.pendingEvents, a.pendingBytes
}

// NameResolver maps tag codes back to names at assembly time. A full
// *tagdict.Dict satisfies it; the terminal proxy uses a partial table
// learned from the card's lazy bindings.
type NameResolver interface {
	Name(code tagdict.Code) string
}

// anode is a buffered output node. Elements own nodes[i+1:end]; a text
// node (end = i+1) owns text[off:off+n].
type anode struct {
	parent, end int32
	off, n      int32
	group       GroupID
	code        tagdict.Code
	mode        Mode
	isText      bool
	// Finish's scratch: the node survives pruning; some child does.
	kept, hasKept bool
}

type groupState uint8

const (
	groupSeen groupState = 1 << iota
	groupResolved
	groupDeliver
)

// NewAssembler returns an Assembler resolving tag codes through names.
func NewAssembler(names NameResolver) *Assembler {
	return &Assembler{names: names, cur: -1, groups: make(map[GroupID]groupState)}
}

// Reset empties the assembler for another session, keeping its storage.
func (a *Assembler) Reset() {
	a.nodes = a.nodes[:0]
	a.text = a.text[:0]
	a.cur = -1
	clear(a.groups)
	a.err = nil
	a.pendingEvents, a.pendingBytes = 0, 0
}

func (a *Assembler) fail(format string, args ...any) error {
	a.err = fmt.Errorf(format, args...)
	return a.err
}

// add appends a node under the current element.
func (a *Assembler) add(n anode) error {
	if len(a.nodes) >= math.MaxInt32 {
		return a.fail("core: assembler holds too many nodes")
	}
	n.parent = a.cur
	a.nodes = append(a.nodes, n)
	return nil
}

// EmitOpen implements Emitter.
func (a *Assembler) EmitOpen(code tagdict.Code, mode Mode, group GroupID) error {
	if a.err != nil {
		return a.err
	}
	if a.cur < 0 && len(a.nodes) > 0 {
		return a.fail("core: assembler received a second root")
	}
	a.note(mode, group, 0)
	if err := a.add(anode{code: code, mode: mode, group: group}); err != nil {
		return err
	}
	a.cur = int32(len(a.nodes) - 1)
	return nil
}

// EmitValue implements Emitter; text is copied into the arena before the
// call returns.
func (a *Assembler) EmitValue(text []byte, mode Mode, group GroupID) error {
	if a.err != nil {
		return a.err
	}
	if a.cur < 0 {
		return a.fail("core: assembler received a value outside any element")
	}
	if len(a.text)+len(text) > math.MaxInt32 {
		return a.fail("core: assembler holds too much text")
	}
	a.note(mode, group, len(text))
	// Merge with an adjacent text sibling of the same status: the card
	// streams large values in chunks, and adjacent text is one node. In
	// preorder such a sibling is the last node, and its span the arena's
	// tail.
	l := &a.nodes[len(a.nodes)-1]
	if l.isText && l.parent == a.cur && l.mode == mode && l.group == group {
		l.n += int32(len(text))
	} else if err := a.add(anode{
		isText: true, end: int32(len(a.nodes) + 1),
		off: int32(len(a.text)), n: int32(len(text)), mode: mode, group: group,
	}); err != nil {
		return err
	}
	a.text = append(a.text, text...)
	return nil
}

// EmitClose implements Emitter.
func (a *Assembler) EmitClose(mode Mode, group GroupID) error {
	if a.err != nil {
		return a.err
	}
	if a.cur < 0 {
		return a.fail("core: assembler received an unbalanced close")
	}
	n := &a.nodes[a.cur]
	n.end = int32(len(a.nodes))
	a.cur = n.parent
	return nil
}

// ResolveGroup implements Emitter.
func (a *Assembler) ResolveGroup(group GroupID, deliver bool) error {
	if a.err != nil {
		return a.err
	}
	st := a.groups[group]
	if st&groupResolved != 0 {
		return a.fail("core: group %d resolved twice", group)
	}
	st |= groupResolved
	if deliver {
		st |= groupDeliver
	}
	a.groups[group] = st
	return nil
}

// note books an event's pending load and records its group as seen.
func (a *Assembler) note(mode Mode, group GroupID, textBytes int) {
	if mode == ModePending {
		a.pendingEvents++
		a.pendingBytes += int64(textBytes)
	}
	if group != 0 {
		if st := a.groups[group]; st&groupSeen == 0 {
			a.groups[group] = st | groupSeen
		}
	}
}

// delivered computes a buffered node's final delivery status.
func (a *Assembler) delivered(n *anode) bool {
	switch n.mode {
	case ModeDeliver:
		return true
	case ModePending:
		return a.groups[n.group]&groupDeliver != 0
	default:
		return false
	}
}

// Finish finalizes the assembly and returns the authorized view, or nil
// when nothing was delivered. The view is a compact copy: it shares no
// storage with the assembler, which may be Reset and reused at once.
//
// Pruning is one reverse sweep (children come after their parent in
// preorder, so each node's fate is known before its parent's): pending
// nodes degrade per their group's outcome; structural elements survive
// only if they contain delivered content (an empty delivered text
// counts); attributes are all-or-nothing. The copy then drops what the
// sweep did not keep, merges text that pruning made adjacent and leaves
// out empty text, so the view is canonical.
func (a *Assembler) Finish() (*View, error) {
	return a.FinishInto(new(View))
}

// FinishInto is Finish into v: the view is built in v's storage, which
// grows only when this view needs more of it, and v is returned (nil when
// nothing was delivered). What v held before is overwritten, so an owner
// that finishes every evaluation into one View — a standing subscriber,
// which copies the view out before its next reception — must hand it to
// nobody who keeps it.
func (a *Assembler) FinishInto(v *View) (*View, error) {
	if a.err != nil {
		return nil, a.err
	}
	if a.cur >= 0 {
		open := 0
		for i := a.cur; i >= 0; i = a.nodes[i].parent {
			open++
		}
		return nil, fmt.Errorf("core: assembler finished with %d unclosed element(s)", open)
	}
	for g, st := range a.groups {
		if st&groupSeen != 0 && st&groupResolved == 0 {
			return nil, fmt.Errorf("core: group %d never resolved", g)
		}
	}

	var keptNodes, keptText, maxCode int
	for i := len(a.nodes) - 1; i >= 0; i-- {
		n := &a.nodes[i]
		n.kept = a.delivered(n) ||
			n.hasKept && !n.isText && !isAttrName(a.names.Name(n.code))
		if !n.kept {
			continue
		}
		keptNodes++
		if n.isText {
			keptText += int(n.n)
		} else {
			maxCode = max(maxCode, int(n.code))
		}
		if n.parent >= 0 {
			a.nodes[n.parent].hasKept = true
		}
	}
	if keptNodes == 0 || !a.nodes[0].kept {
		return nil, nil
	}

	// keptNodes and keptText are upper bounds (content under a dropped
	// attribute was counted), so the appends below never reallocate.
	v.nodes = slices.Grow(v.nodes[:0], keptNodes)
	v.text = slices.Grow(v.text[:0], keptText)
	v.names = slices.Grow(v.names[:0], maxCode+1)[:maxCode+1]
	clear(v.names)
	cur, curOld := int32(-1), int32(-1) // innermost open element, in view and arena indices
	closeUpTo := func(i int32) {
		for curOld >= 0 && a.nodes[curOld].end <= i {
			v.nodes[cur].end = int32(len(v.nodes))
			cur, curOld = v.nodes[cur].parent, a.nodes[curOld].parent
		}
	}
	for i := int32(0); i < int32(len(a.nodes)); {
		n := &a.nodes[i]
		closeUpTo(i)
		switch {
		case !n.kept:
			i = n.end // over the whole subtree: nothing under it is in the view
			continue
		case !n.isText:
			if v.names[n.code] == "" {
				v.names[n.code] = a.names.Name(n.code)
			}
			v.nodes = append(v.nodes, vnode{parent: cur, code: n.code})
			cur, curOld = int32(len(v.nodes)-1), i
		case n.n > 0:
			if last := len(v.nodes) - 1; v.nodes[last].isText && v.nodes[last].parent == cur {
				v.nodes[last].n += n.n
			} else {
				v.nodes = append(v.nodes, vnode{parent: cur, isText: true, off: int32(len(v.text)), n: n.n})
			}
			v.text = append(v.text, a.text[n.off:n.off+n.n]...)
		}
		i++
	}
	closeUpTo(int32(len(a.nodes)))
	return v, nil
}

func isAttrName(name string) bool {
	return len(name) > 0 && name[0] == '@'
}
