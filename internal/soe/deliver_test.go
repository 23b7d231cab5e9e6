package soe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/secure"
	"repro/internal/tagdict"
)

// callLog is a RecordSink that writes every call it receives down as the
// record that would have carried it, and can be told to fail one.
type callLog struct {
	log    []byte
	calls  int
	failAt int // the call to refuse, counted from 1; 0 refuses none
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

func (l *callLog) Bind(c tagdict.Code, name []byte) error {
	if err := l.note(recBind); err != nil {
		return err
	}
	l.uvarint(uint64(c))
	l.uvarint(uint64(len(name)))
	l.log = append(l.log, name...)
	return nil
}

func (l *callLog) Open(c tagdict.Code, m core.Mode, g core.GroupID) error {
	if err := l.note(recOpen); err != nil {
		return err
	}
	l.uvarint(uint64(c))
	l.log = append(l.log, byte(m))
	l.uvarint(uint64(g))
	return nil
}

func (l *callLog) Value(text []byte, m core.Mode, g core.GroupID) error {
	if err := l.note(recValue); err != nil {
		return err
	}
	l.log = append(l.log, byte(m))
	l.uvarint(uint64(g))
	l.uvarint(uint64(len(text)))
	l.log = append(l.log, text...)
	return nil
}

func (l *callLog) Close(m core.Mode, g core.GroupID) error {
	if err := l.note(recClose); err != nil {
		return err
	}
	l.log = append(l.log, byte(m))
	l.uvarint(uint64(g))
	return nil
}

func (l *callLog) Resolve(g core.GroupID, deliver bool) error {
	if err := l.note(recResolve); err != nil {
		return err
	}
	l.uvarint(uint64(g))
	if deliver {
		l.log = append(l.log, 1)
	} else {
		l.log = append(l.log, 0)
	}
	return nil
}

func (l *callLog) Done() error { return l.note(recDone) }

// sameDelivery compares an evaluation delivered to sink with the same
// evaluation through the record path: the sink's calls, every field of
// the card meter, the statistics with their RAM peak — and not one
// record returned.
func sameDelivery(t *testing.T, what string, sink *callLog, got, want outcome) {
	t.Helper()
	if len(got.records) != 0 {
		t.Errorf("%s: a session that delivers returned %d bytes of records", what, len(got.records))
	}
	if !bytes.Equal(sink.log, want.records) {
		t.Errorf("%s: the sink saw other calls than the records carry (%d bytes as records, want %d)", what, len(sink.log), len(want.records))
	}
	if int64(len(want.records)) != want.meter.BytesFromCard {
		t.Errorf("%s: %d bytes of records, %d charged to the link", what, len(want.records), want.meter.BytesFromCard)
	}
	if got.meter != want.meter {
		t.Errorf("%s: card meter differs:\ngot:  %+v\nwant: %+v", what, got.meter, want.meter)
	}
	if got.stats != want.stats {
		t.Errorf("%s: session statistics differ:\ngot:  %+v\nwant: %+v", what, got.stats, want.stats)
	}
}

// TestDirectDeliveryMatchesRecordPath: one long-lived session bound to a
// sink, re-armed from case to case, against the record path of a fresh
// session per case — the corpus's queries included, under every option
// set.
func TestDirectDeliveryMatchesRecordPath(t *testing.T) {
	cases := corpus(t)
	for name, opts := range optionSets {
		t.Run(name, func(t *testing.T) {
			c := standingCard(t, cases)
			sink := &callLog{}
			sess, err := NewSession(c, cases[0].name, "u", cases[0].query, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.DeliverTo(sink); err != nil {
				t.Fatal(err)
			}
			for _, ec := range cases {
				if err := sess.Restart(ec.name, "u", ec.query); err != nil {
					t.Fatal(err)
				}
				sink.reset()
				sameDelivery(t, ec.name, sink, evaluate(t, c, sess, ec), evaluateFresh(t, ec, opts))
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
	sink := &callLog{}
	sess, err := NewSession(c, cases[0].name, "u", cases[0].query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.DeliverTo(sink); err != nil {
		t.Fatal(err)
	}
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
			sink.reset()
			sameDelivery(t, fmt.Sprintf("%s after an abort at block %d", ec.name, bad), sink, evaluate(t, c, sess, ec), fresh)
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
	sink := &callLog{}
	sess, err := NewSession(c, cases[0].name, "u", cases[0].query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.DeliverTo(sink); err != nil {
		t.Fatal(err)
	}
	for _, ec := range cases {
		fresh := evaluateFresh(t, ec, Options{})
		var all callLog
		if err := DecodeRecords(fresh.records, &all); err != nil {
			t.Fatal(err)
		}
		// Every call of a short evaluation, a spread of a long one, and
		// always the last (the done signal).
		step := max(1, all.calls/60)
		for at := 1; at <= all.calls; at += step {
			if at+step > all.calls {
				at = all.calls
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
				t.Fatalf("%s: sink refused call %d of %d, evaluation ended with: %v", ec.name, at, all.calls, feedErr)
			}
			if sess.Done() || sess.NeedBlock() != -1 || c.RAM.InUse() != 0 {
				t.Fatalf("%s: after the sink's error: done %t, wants block %d, %d bytes of RAM charged",
					ec.name, sess.Done(), sess.NeedBlock(), c.RAM.InUse())
			}

			sink.failAt = 0
			if err := sess.Restart(ec.name, "u", ec.query); err != nil {
				t.Fatal(err)
			}
			sink.reset()
			sameDelivery(t, fmt.Sprintf("%s after the sink refused call %d", ec.name, at), sink, evaluate(t, c, sess, ec), fresh)
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
