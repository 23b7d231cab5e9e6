package soe

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/tagdict"
)

// Output record opcodes: the compact card-to-terminal protocol carrying
// the evaluator's output. Closes carry no tag (the terminal tracks the
// stack), and tag names cross the link once, the first time a code is
// delivered — so the terminal learns only the names of tags that actually
// appear in the (candidate) result, not the whole dictionary.
const (
	recBind    = 0x01 // varint code, varint len, name bytes
	recOpen    = 0x02 // varint code, mode byte, varint group
	recValue   = 0x03 // mode byte, varint group, varint len, text bytes
	recClose   = 0x04 // mode byte, varint group
	recResolve = 0x05 // varint group, deliver byte
	recDone    = 0x06
)

// recordEmitter adapts the evaluator's Emitter interface onto the record
// protocol, inserting lazy name bindings. Unbound, it encodes the records
// into buf, which stays with the session: each Feed truncates it and
// returns it filled, so a Feed result is valid until the next Feed. Bound
// to a sink (Session.DeliverTo), it makes the sink's calls itself — the
// calls DecodeRecords would make from the encoded records — and encodes
// nothing. Either way size counts the bytes the records take on the
// card-to-terminal link, from the one set of size functions below, so
// the link is charged the same whichever way the output leaves.
type recordEmitter struct {
	buf       []byte
	sink      RecordSink
	size      int
	dict      *tagdict.Dict
	announced []bool
	name      []byte // a bound name, as bytes, for the duration of sink.Bind
}

// Sizes of the records on the link.
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

// begin starts the output of one Feed.
func (e *recordEmitter) begin() {
	e.buf, e.size = e.buf[:0], 0
}

// EmitOpen implements core.Emitter.
func (e *recordEmitter) EmitOpen(code tagdict.Code, mode core.Mode, group core.GroupID) error {
	if int(code) < len(e.announced) && !e.announced[code] {
		e.announced[code] = true
		name := e.dict.Name(code)
		e.size += bindSize(code, len(name))
		if e.sink != nil {
			e.name = append(e.name[:0], name...)
			if err := e.sink.Bind(code, e.name); err != nil {
				return err
			}
		} else {
			e.buf = append(e.buf, recBind)
			e.buf = binary.AppendUvarint(e.buf, uint64(code))
			e.buf = binary.AppendUvarint(e.buf, uint64(len(name)))
			e.buf = append(e.buf, name...)
		}
	}
	e.size += openSize(code, group)
	if e.sink != nil {
		return e.sink.Open(code, mode, group)
	}
	e.buf = append(e.buf, recOpen)
	e.buf = binary.AppendUvarint(e.buf, uint64(code))
	e.buf = append(e.buf, byte(mode))
	e.buf = binary.AppendUvarint(e.buf, uint64(group))
	return nil
}

// EmitValue implements core.Emitter.
func (e *recordEmitter) EmitValue(text []byte, mode core.Mode, group core.GroupID) error {
	e.size += valueSize(len(text), group)
	if e.sink != nil {
		return e.sink.Value(text, mode, group)
	}
	e.buf = append(e.buf, recValue)
	e.buf = append(e.buf, byte(mode))
	e.buf = binary.AppendUvarint(e.buf, uint64(group))
	e.buf = binary.AppendUvarint(e.buf, uint64(len(text)))
	e.buf = append(e.buf, text...)
	return nil
}

// EmitClose implements core.Emitter.
func (e *recordEmitter) EmitClose(mode core.Mode, group core.GroupID) error {
	e.size += closeSize(group)
	if e.sink != nil {
		return e.sink.Close(mode, group)
	}
	e.buf = append(e.buf, recClose)
	e.buf = append(e.buf, byte(mode))
	e.buf = binary.AppendUvarint(e.buf, uint64(group))
	return nil
}

// ResolveGroup implements core.Emitter.
func (e *recordEmitter) ResolveGroup(group core.GroupID, deliver bool) error {
	e.size += resolveSize(group)
	if e.sink != nil {
		return e.sink.Resolve(group, deliver)
	}
	e.buf = append(e.buf, recResolve)
	e.buf = binary.AppendUvarint(e.buf, uint64(group))
	d := byte(0)
	if deliver {
		d = 1
	}
	e.buf = append(e.buf, d)
	return nil
}

// done ends the record stream of an evaluation.
func (e *recordEmitter) done() error {
	e.size += doneSize
	if e.sink != nil {
		return e.sink.Done()
	}
	e.buf = append(e.buf, recDone)
	return nil
}

// RecordSink receives the card's records on the terminal side, decoded
// (DecodeRecords) or never encoded (Session.DeliverTo). The name and text
// slices alias the caller's buffers — the decoder's input, the card's
// input window: a sink keeps what it needs by copying before it returns.
type RecordSink interface {
	Bind(code tagdict.Code, name []byte) error
	Open(code tagdict.Code, mode core.Mode, group core.GroupID) error
	Value(text []byte, mode core.Mode, group core.GroupID) error
	Close(mode core.Mode, group core.GroupID) error
	Resolve(group core.GroupID, deliver bool) error
	Done() error
}

// DecodeRecords parses a record stream that holds only whole records
// (as Session.Feed outputs always do), invoking the sink per record. A
// record cut short is an error like any other malformed one.
func DecodeRecords(data []byte, sink RecordSink) error {
	pos := 0
	cut := func() error { return fmt.Errorf("soe: record cut short at offset %d", pos) }
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n == 0 {
			return 0, cut()
		}
		if n < 0 {
			return 0, fmt.Errorf("soe: malformed varint at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	readByte := func() (byte, error) {
		if pos >= len(data) {
			return 0, cut()
		}
		b := data[pos]
		pos++
		return b, nil
	}
	// readBytes reads a length-prefixed field. The length is compared as
	// a uint64 against what is left: a hostile length of 2^63 or more
	// must not wrap negative and slip past the bound.
	readBytes := func() ([]byte, error) {
		l, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(data)-pos) {
			return nil, cut()
		}
		b := data[pos : pos+int(l)]
		pos += int(l)
		return b, nil
	}
	for pos < len(data) {
		op, _ := readByte()
		err := func() error {
			switch op {
			case recBind:
				code, err := readUvarint()
				if err != nil {
					return err
				}
				name, err := readBytes()
				if err != nil {
					return err
				}
				return sink.Bind(tagdict.Code(code), name)
			case recOpen:
				code, err := readUvarint()
				if err != nil {
					return err
				}
				mode, err := readByte()
				if err != nil {
					return err
				}
				group, err := readUvarint()
				if err != nil {
					return err
				}
				return sink.Open(tagdict.Code(code), core.Mode(mode), core.GroupID(group))
			case recValue:
				mode, err := readByte()
				if err != nil {
					return err
				}
				group, err := readUvarint()
				if err != nil {
					return err
				}
				text, err := readBytes()
				if err != nil {
					return err
				}
				return sink.Value(text, core.Mode(mode), core.GroupID(group))
			case recClose:
				mode, err := readByte()
				if err != nil {
					return err
				}
				group, err := readUvarint()
				if err != nil {
					return err
				}
				return sink.Close(core.Mode(mode), core.GroupID(group))
			case recResolve:
				group, err := readUvarint()
				if err != nil {
					return err
				}
				d, err := readByte()
				if err != nil {
					return err
				}
				return sink.Resolve(core.GroupID(group), d != 0)
			case recDone:
				return sink.Done()
			default:
				return fmt.Errorf("soe: unknown record opcode %#x at offset %d", op, pos-1)
			}
		}()
		if err != nil {
			return err
		}
	}
	return nil
}
