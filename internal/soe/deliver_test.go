package soe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/secure"
	"repro/internal/tagdict"
)

// The opcodes callLog writes a call down with: the record that stands for
// the call on the card-to-terminal link (see recordEmitter's size
// functions).
const (
	callBind    = 0x01 // varint code, varint len, name bytes
	callOpen    = 0x02 // varint code, mode byte, varint group
	callValue   = 0x03 // mode byte, varint group, varint len, text bytes
	callClose   = 0x04 // mode byte, varint group
	callResolve = 0x05 // varint group, deliver byte
	callDone    = 0x06
)

// callLog is a RecordSink that writes every call it receives down as the
// record that stands for it, passes the call on to tee (when set), and
// can be told to fail one.
type callLog struct {
	log    []byte
	calls  int
	failAt int        // the call to refuse, counted from 1; 0 refuses none
	tee    RecordSink // also receives every call logged
}

var errSink = errors.New("sink refuses")

func (l *callLog) reset() { l.log, l.calls = l.log[:0], 0 }

// note counts a call and starts its record, or refuses it.
func (l *callLog) note(op byte) error {
	if l.calls++; l.calls == l.failAt {
		return errSink
	}
	l.log = append(l.log, op)
	return nil
}

func (l *callLog) uvarint(v uint64) { l.log = binary.AppendUvarint(l.log, v) }

func (l *callLog) next() RecordSink {
	if l.tee == nil {
		return discard{}
	}
	return l.tee
}

func (l *callLog) Bind(c tagdict.Code, name []byte) error {
	if err := l.note(callBind); err != nil {
		return err
	}
	l.uvarint(uint64(c))
	l.uvarint(uint64(len(name)))
	l.log = append(l.log, name...)
	return l.next().Bind(c, name)
}

func (l *callLog) Open(c tagdict.Code, m core.Mode, g core.GroupID) error {
	if err := l.note(callOpen); err != nil {
		return err
	}
	l.uvarint(uint64(c))
	l.log = append(l.log, byte(m))
	l.uvarint(uint64(g))
	return l.next().Open(c, m, g)
}

func (l *callLog) Value(text []byte, m core.Mode, g core.GroupID) error {
	if err := l.note(callValue); err != nil {
		return err
	}
	l.log = append(l.log, byte(m))
	l.uvarint(uint64(g))
	l.uvarint(uint64(len(text)))
	l.log = append(l.log, text...)
	return l.next().Value(text, m, g)
}

func (l *callLog) Close(m core.Mode, g core.GroupID) error {
	if err := l.note(callClose); err != nil {
		return err
	}
	l.log = append(l.log, byte(m))
	l.uvarint(uint64(g))
	return l.next().Close(m, g)
}

func (l *callLog) Resolve(g core.GroupID, deliver bool) error {
	if err := l.note(callResolve); err != nil {
		return err
	}
	l.uvarint(uint64(g))
	if deliver {
		l.log = append(l.log, 1)
	} else {
		l.log = append(l.log, 0)
	}
	return l.next().Resolve(g, deliver)
}

func (l *callLog) Done() error {
	if err := l.note(callDone); err != nil {
		return err
	}
	return l.next().Done()
}

// TestDirectDeliveryMatchesRecordPath: one long-lived session bound to a
// sink, re-armed from case to case, against a fresh session per case
// bound to a sink of its own — the records the calls stand for, the card
// meter and the statistics, the corpus's queries included, under every
// option set.
func TestDirectDeliveryMatchesRecordPath(t *testing.T) {
	cases := corpus(t)
	for name, opts := range optionSets {
		t.Run(name, func(t *testing.T) {
			c := standingCard(t, cases)
			sess, sink := loggedSession(t, c, cases[0], opts)
			for _, ec := range cases {
				if err := sess.Restart(ec.name, "u", ec.query); err != nil {
					t.Fatal(err)
				}
				sameOutcome(t, ec.name, evaluate(t, c, sess, ec, sink), evaluateFresh(t, ec, opts))
			}
		})
	}
}

// TestUnboundSessionChargesAsBound: a session nobody bound to a sink (the
// benchmark's hand-driven card) drops its output but costs the card and
// the link what a bound one does, and reports the same statistics.
func TestUnboundSessionChargesAsBound(t *testing.T) {
	cases := corpus(t)
	for name, opts := range optionSets {
		t.Run(name, func(t *testing.T) {
			for _, ec := range cases {
				c := card.New(card.Modern)
				ec.provision(t, c)
				sess, err := NewSession(c, ec.name, "u", ec.query, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, want := evaluate(t, c, sess, ec, nil), evaluateFresh(t, ec, opts)
				want.records = nil
				sameOutcome(t, ec.name, got, want)
				if !slices.Equal(got.fed, want.fed) {
					t.Errorf("%s: unbound, the card asked for blocks %v; bound, %v", ec.name, got.fed, want.fed)
				}
			}
		})
	}
}

// TestDirectDeliveryAfterAbort: the bound session's
// evaluation before was cut off by a tampered block — at every block in
// turn, or at a spread of them where the card reads more than a few
// dozen (TestRestartAfterAbortAtEveryBlock visits them all, and what a
// restart resets does not depend on where the output goes); the one
// after is delivered as if nothing had happened.
func TestDirectDeliveryAfterAbort(t *testing.T) {
	cases := corpus(t)[:16]
	c := standingCard(t, cases)
	sess, sink := loggedSession(t, c, cases[0], Options{})
	for _, ec := range cases {
		fresh := evaluateFresh(t, ec, Options{})
		step := max(1, len(fresh.fed)/32)
		for cut := 0; cut < len(fresh.fed); cut += step {
			bad := fresh.fed[cut]
			if err := sess.Restart(ec.name, "u", ec.query); err != nil {
				t.Fatal(err)
			}
			if err := sess.LoadHeader(ec.header); err != nil {
				t.Fatal(err)
			}
			for _, idx := range fresh.fed[:cut] {
				if _, err := sess.Feed(idx, ec.container.Blocks[idx]); err != nil {
					t.Fatalf("%s: block %d: %v", ec.name, idx, err)
				}
			}
			tampered := bytes.Clone(ec.container.Blocks[bad])
			tampered[len(tampered)/2] ^= 0x40
			if _, err := sess.Feed(bad, tampered); !errors.Is(err, secure.ErrIntegrity) {
				t.Fatalf("%s: tampered block %d: %v", ec.name, bad, err)
			}
			if err := sess.DeliverTo(sink); err != nil {
				t.Fatalf("%s: an aborted session refuses its sink: %v", ec.name, err)
			}
			if err := sess.Restart(ec.name, "u", ec.query); err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, fmt.Sprintf("%s after an abort at block %d", ec.name, bad), evaluate(t, c, sess, ec, sink), fresh)
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestSinkErrorAbortsSession: whichever call the sink refuses, the
// evaluation ends with the sink's error and the card's memory released,
// and the session's next evaluation is clean.
func TestSinkErrorAbortsSession(t *testing.T) {
	var cases []*evalCase
	for _, ec := range corpus(t) {
		switch ec.name {
		case "pull-nurse", "attr-predicate", "value-query", "stream-buffered-value", "random-7":
			cases = append(cases, ec)
		}
	}
	c := card.New(card.Modern)
	for _, ec := range cases {
		ec.provision(t, c)
	}
	sess, sink := loggedSession(t, c, cases[0], Options{})
	for _, ec := range cases {
		fresh := evaluateFresh(t, ec, Options{})
		// Every call of a short evaluation, a spread of a long one, and
		// always the last (the done signal).
		step := max(1, fresh.calls/60)
		for at := 1; at <= fresh.calls; at += step {
			if at+step > fresh.calls {
				at = fresh.calls
			}
			if err := sess.Restart(ec.name, "u", ec.query); err != nil {
				t.Fatal(err)
			}
			sink.reset()
			sink.failAt = at
			if err := sess.LoadHeader(ec.header); err != nil {
				t.Fatal(err)
			}
			var feedErr error
			for idx := sess.NeedBlock(); idx >= 0 && feedErr == nil; idx = sess.NeedBlock() {
				_, feedErr = sess.Feed(idx, ec.container.Blocks[idx])
			}
			if !errors.Is(feedErr, errSink) {
				t.Fatalf("%s: sink refused call %d of %d, evaluation ended with: %v", ec.name, at, fresh.calls, feedErr)
			}
			if sess.Done() || sess.NeedBlock() != -1 || c.RAM.InUse() != 0 {
				t.Fatalf("%s: after the sink's error: done %t, wants block %d, %d bytes of RAM charged",
					ec.name, sess.Done(), sess.NeedBlock(), c.RAM.InUse())
			}

			sink.failAt = 0
			if err := sess.Restart(ec.name, "u", ec.query); err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, fmt.Sprintf("%s after the sink refused call %d", ec.name, at), evaluate(t, c, sess, ec, sink), fresh)
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestDeliverToRefusedMidEvaluation: the output of an evaluation goes one
// way from its first record to its last.
func TestDeliverToRefusedMidEvaluation(t *testing.T) {
	ec := corpus(t)[0]
	c := card.New(card.Modern)
	ec.provision(t, c)
	sess, err := NewSession(c, ec.name, "u", ec.query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LoadHeader(ec.header); err != nil {
		t.Fatal(err)
	}
	if err := sess.DeliverTo(&callLog{}); err == nil {
		t.Fatal("a session took a sink in mid-evaluation")
	}
	sess.Abort()
}
