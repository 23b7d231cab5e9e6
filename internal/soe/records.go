package soe

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/tagdict"
)

// recordEmitter adapts the evaluator's Emitter interface onto the
// terminal's sink, inserting lazy name bindings: a tag's name crosses the
// link once, the first time its code is delivered, so the terminal learns
// only the names of tags that actually appear in the (candidate) result,
// not the whole dictionary. Closes carry no tag (the terminal tracks the
// stack). size counts the bytes the calls take as records on the
// card-to-terminal link, from the size functions below, so the link is
// charged what a compact record protocol would carry.
type recordEmitter struct {
	sink      RecordSink
	size      int
	dict      *tagdict.Dict
	announced []bool
	name      []byte // a bound name, as bytes, for the duration of sink.Bind
}

// Sizes of the records on the link: an opcode byte, then varint codes,
// groups and lengths, a mode or deliver byte, and name or text bytes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func bindSize(code tagdict.Code, name int) int {
	return 1 + uvarintLen(uint64(code)) + uvarintLen(uint64(name)) + name
}
func openSize(code tagdict.Code, group core.GroupID) int {
	return 2 + uvarintLen(uint64(code)) + uvarintLen(uint64(group))
}
func valueSize(text int, group core.GroupID) int {
	return 2 + uvarintLen(uint64(group)) + uvarintLen(uint64(text)) + text
}
func closeSize(group core.GroupID) int   { return 2 + uvarintLen(uint64(group)) }
func resolveSize(group core.GroupID) int { return 2 + uvarintLen(uint64(group)) }

const doneSize = 1

// reset starts a document over: no name of dict has crossed the link yet.
func (e *recordEmitter) reset(dict *tagdict.Dict) {
	e.dict = dict
	e.announced = append(e.announced[:0], make([]bool, dict.Len())...)
}

// EmitOpen implements core.Emitter.
func (e *recordEmitter) EmitOpen(code tagdict.Code, mode core.Mode, group core.GroupID) error {
	if int(code) < len(e.announced) && !e.announced[code] {
		e.announced[code] = true
		name := e.dict.Name(code)
		e.size += bindSize(code, len(name))
		e.name = append(e.name[:0], name...)
		if err := e.sink.Bind(code, e.name); err != nil {
			return err
		}
	}
	e.size += openSize(code, group)
	return e.sink.Open(code, mode, group)
}

// EmitValue implements core.Emitter.
func (e *recordEmitter) EmitValue(text []byte, mode core.Mode, group core.GroupID) error {
	e.size += valueSize(len(text), group)
	return e.sink.Value(text, mode, group)
}

// EmitClose implements core.Emitter.
func (e *recordEmitter) EmitClose(mode core.Mode, group core.GroupID) error {
	e.size += closeSize(group)
	return e.sink.Close(mode, group)
}

// ResolveGroup implements core.Emitter.
func (e *recordEmitter) ResolveGroup(group core.GroupID, deliver bool) error {
	e.size += resolveSize(group)
	return e.sink.Resolve(group, deliver)
}

// done ends the output of an evaluation.
func (e *recordEmitter) done() error {
	e.size += doneSize
	return e.sink.Done()
}

// RecordSink receives the card's output on the terminal side
// (Session.DeliverTo), one call per record on the link. The name and
// text slices alias the card's buffers: a sink keeps what it needs by
// copying before it returns.
type RecordSink interface {
	Bind(code tagdict.Code, name []byte) error
	Open(code tagdict.Code, mode core.Mode, group core.GroupID) error
	Value(text []byte, mode core.Mode, group core.GroupID) error
	Close(mode core.Mode, group core.GroupID) error
	Resolve(group core.GroupID, deliver bool) error
	Done() error
}

// discard is the sink of a session nobody bound: the output is charged
// to the link and dropped.
type discard struct{}

func (discard) Bind(tagdict.Code, []byte) error                  { return nil }
func (discard) Open(tagdict.Code, core.Mode, core.GroupID) error { return nil }
func (discard) Value([]byte, core.Mode, core.GroupID) error      { return nil }
func (discard) Close(core.Mode, core.GroupID) error              { return nil }
func (discard) Resolve(core.GroupID, bool) error                 { return nil }
func (discard) Done() error                                      { return nil }
