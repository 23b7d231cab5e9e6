package apdu

import (
	"encoding/binary"
	"errors"

	"repro/internal/card"
	"repro/internal/mem"
	"repro/internal/secure"
	"repro/internal/soe"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// Applet instruction bytes (CLA AppletCLA).
const (
	AppletCLA = 0x80

	// INSPutKey provisions a document key: data = str(docID) || key(48).
	INSPutKey = 0x10
	// INSPutRules installs a sealed rule set, chunked. P1=1 on the last
	// chunk. First chunk data = str(docID) || str(subject) || blob...;
	// later chunks are raw blob bytes.
	INSPutRules = 0x12
	// INSBegin opens a session: data = str(docID) || str(subject) ||
	// str(query) || flags byte (bit0: disable skip, bit1: disable copy).
	INSBegin = 0x20
	// INSHeader delivers the container header, chunked (P1=1 on last).
	INSHeader = 0x22
	// INSData delivers the next wanted cipher block, chunked (P1=1 on
	// last). The response starts draining output records.
	INSData = 0x24
	// INSGetOutput drains pending output records (<= 255 bytes each).
	INSGetOutput = 0x26
	// INSGetNeed returns the wanted block index as 4 big-endian bytes,
	// 0xFFFFFFFF when the session is done.
	INSGetNeed = 0x28
	// INSEnd aborts/closes the session.
	INSEnd = 0x2A
)

// Applet dispatches APDUs onto a card and at most one active session,
// like the mono-applicative e-gate applet of the demonstration.
type Applet struct {
	Card *card.Card

	sess    *soe.Session
	rulesIn chunkBuf
	hdrIn   chunkBuf
	blockIn chunkBuf
	rulesID struct{ docID, subject string }
	outBuf  []byte
}

// NewApplet wraps a provisionable card.
func NewApplet(c *card.Card) *Applet {
	return &Applet{Card: c}
}

// chunkBuf reassembles multi-APDU payloads.
type chunkBuf struct {
	data  []byte
	armed bool
}

func (b *chunkBuf) add(chunk []byte) {
	b.data = append(b.data, chunk...)
	b.armed = true
}

func (b *chunkBuf) take() []byte {
	d := b.data
	b.data = nil
	b.armed = false
	return d
}

// Process executes one command. It never panics on hostile input; every
// failure maps to a status word.
func (a *Applet) Process(c Command) Response {
	if c.CLA != AppletCLA {
		return Response{SW: SWUnknownINS}
	}
	switch c.INS {
	case INSPutKey:
		return a.putKey(c)
	case INSPutRules:
		return a.putRules(c)
	case INSBegin:
		return a.begin(c)
	case INSHeader:
		return a.header(c)
	case INSData:
		return a.data(c)
	case INSGetOutput:
		return a.getOutput()
	case INSGetNeed:
		return a.getNeed()
	case INSEnd:
		return a.end()
	default:
		return Response{SW: SWUnknownINS}
	}
}

func (a *Applet) putKey(c Command) Response {
	r := wire.NewReader(c.Data)
	docID := r.String()
	keyBytes := r.Take(48)
	if !r.Done() {
		return Response{SW: SWWrongData}
	}
	key, err := secure.UnmarshalDocKey(keyBytes)
	if err != nil {
		return Response{SW: SWWrongData}
	}
	if err := a.Card.PutKey(docID, key); err != nil {
		return statusFor(err)
	}
	return Response{SW: SWOK}
}

func (a *Applet) putRules(c Command) Response {
	if !a.rulesIn.armed {
		r := wire.NewReader(c.Data)
		a.rulesID.docID = r.String()
		a.rulesID.subject = r.String()
		if r.Err() != nil {
			return Response{SW: SWWrongData}
		}
		a.rulesIn.add(r.Rest())
	} else {
		a.rulesIn.add(c.Data)
	}
	if c.P1 != 1 {
		return Response{SW: SWOK} // more chunks follow
	}
	sealed := a.rulesIn.take()
	if err := a.Card.PutSealedRuleSet(a.rulesID.docID, a.rulesID.subject, sealed); err != nil {
		return statusFor(err)
	}
	return Response{SW: SWOK}
}

func (a *Applet) begin(c Command) Response {
	if a.sess != nil {
		a.sess.Abort()
		a.sess = nil
	}
	r := wire.NewReader(c.Data)
	docID := r.String()
	subject := r.String()
	queryStr := r.String()
	flags := r.Byte()
	if !r.Done() {
		return Response{SW: SWWrongData}
	}
	var query *xpath.Path
	if queryStr != "" {
		q, err := xpath.Parse(queryStr)
		if err != nil {
			return Response{SW: SWWrongData}
		}
		query = q
	}
	sess, err := soe.NewSession(a.Card, docID, subject, query, soe.Options{
		DisableSkip: flags&1 != 0,
		DisableCopy: flags&2 != 0,
	})
	if err != nil {
		return statusFor(err)
	}
	a.sess = sess
	a.outBuf = nil
	return Response{SW: SWOK}
}

func (a *Applet) header(c Command) Response {
	if a.sess == nil {
		return Response{SW: SWConditions}
	}
	a.hdrIn.add(c.Data)
	if c.P1 != 1 {
		return Response{SW: SWOK}
	}
	if err := a.sess.LoadHeader(a.hdrIn.take()); err != nil {
		a.sess = nil
		return statusFor(err)
	}
	return Response{SW: SWOK}
}

func (a *Applet) data(c Command) Response {
	if a.sess == nil {
		return Response{SW: SWConditions}
	}
	a.blockIn.add(c.Data)
	if c.P1 != 1 {
		return Response{SW: SWOK}
	}
	idx := a.sess.NeedBlock()
	out, err := a.sess.Feed(idx, a.blockIn.take())
	if err != nil {
		a.sess = nil
		return statusFor(err)
	}
	a.outBuf = append(a.outBuf, out...)
	return a.drain()
}

func (a *Applet) getOutput() Response {
	return a.drain()
}

// drain returns up to MaxData pending output bytes; the status word says
// whether more remain.
func (a *Applet) drain() Response {
	n := len(a.outBuf)
	if n > MaxData {
		n = MaxData
	}
	chunk := a.outBuf[:n]
	a.outBuf = a.outBuf[n:]
	sw := uint16(SWOK)
	if len(a.outBuf) > 0 {
		hint := len(a.outBuf)
		if hint > 255 {
			hint = 255
		}
		sw = SWBytesRemain | uint16(hint)
	}
	return Response{Data: chunk, SW: sw}
}

func (a *Applet) getNeed() Response {
	if a.sess == nil {
		return Response{SW: SWConditions}
	}
	idx := a.sess.NeedBlock()
	var out [4]byte
	if idx < 0 {
		binary.BigEndian.PutUint32(out[:], 0xFFFFFFFF)
	} else {
		binary.BigEndian.PutUint32(out[:], uint32(idx))
	}
	return Response{Data: out[:], SW: SWOK}
}

func (a *Applet) end() Response {
	if a.sess != nil {
		a.sess.Abort()
		a.sess = nil
	}
	a.outBuf = nil
	return Response{SW: SWOK}
}

// statusFor maps internal errors onto card status words.
func statusFor(err error) Response {
	switch {
	case errors.Is(err, secure.ErrIntegrity):
		return Response{SW: SWSecurity}
	case errors.Is(err, mem.ErrBudget):
		return Response{SW: SWMemoryFailure}
	default:
		return Response{SW: SWConditions}
	}
}
