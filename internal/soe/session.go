// Package soe implements the applet running inside the Secure Operating
// Environment: the session state machine that, per Section 2.1, "is in
// charge of decrypting the input document, checking its integrity and
// evaluating the access control policy corresponding to a given
// (document, subject) pair" — plus the optional query of pull mode.
//
// A Session is driven by the terminal proxy: the proxy pushes encrypted
// blocks one at a time (Feed) and reads back (a) a stream of compact
// output records carrying the authorized events — or, having told the
// session where its output goes (DeliverTo), receives those events as
// calls on its sink, metered as the records they stand for — and (b) the
// index of the next block the card wants — which jumps forward whenever
// the evaluator skips a subtree, turning skip decisions into bytes that
// are neither transmitted nor decrypted.
//
// Everything the session allocates is charged to the card's secure RAM
// gauge; exhausting the budget aborts the session exactly as a real
// applet would fail allocation.
package soe

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/card"
	"repro/internal/core"
	"repro/internal/docenc"
	"repro/internal/mem"
	"repro/internal/secure"
	"repro/internal/tagdict"
	"repro/internal/xpath"
)

// Options tunes a session.
type Options struct {
	// DisableSkip ignores the skip index (ablation).
	DisableSkip bool
	// DisableCopy disables the copy-through fast path (ablation).
	DisableCopy bool
	// MaxValue bounds a single text node (default: 8 plaintext blocks).
	MaxValue int
}

// sessionPhase is the applet state machine.
type sessionPhase uint8

const (
	phaseHeader sessionPhase = iota // waiting for LoadHeader
	phaseDict                       // accumulating the dictionary
	phaseStream                     // evaluating the structure stream
	phaseDone
	phaseAborted
)

// Session is one (document, subject[, query]) evaluation at a time. The
// object outlives the evaluation: Restart re-arms it for the next one in
// the memory it already owns — source window, record buffer, block
// buffer, tag dictionary, decoder, and evaluator with its compiled
// automata and slabs — which is how a terminal that serves query after
// query on one card (proxy.Session, dissem.Subscriber) keeps the
// evaluation off the allocator: each header's dictionary is decoded and
// the rules compiled anew, into storage the session already holds.
type Session struct {
	card *card.Card
	opts Options

	docID   string
	subject string
	query   *xpath.Path

	ctx    *secure.BlockContext // card-cached cipher state; immutable once set
	header docenc.Header
	// valueLimit bounds a text node that must be buffered whole
	// (Options.MaxValue, or its default for this header's geometry).
	valueLimit int

	ram        mem.Scope
	dict       tagdict.Dict // decoded anew at each header (Dict.Decode)
	dictEEPROM int          // session-scoped stable storage, reclaimed at end
	dec        docenc.Decoder
	eval       core.Evaluator
	evalArmed  bool // eval belongs to this evaluation (dictionary phase done)
	src        blockSource
	emit       recordEmitter
	block      []byte // Feed decrypts into it

	// runs recycles PreparedRuns between the prefetch stage that fills
	// them and the consumer that releases them. Capacity 3: the most the
	// terminal's pipeline has in flight (one being fed, one queued, one
	// being prepared).
	runs chan *PreparedRun

	phase     sessionPhase
	lastStats core.Stats

	// value accumulates a streamed value when the evaluator cannot accept
	// chunks (an unresolved comparison targets the current node's text).
	value struct {
		active    bool
		chunkable bool
		buf       []byte
		charged   int
	}
}

// NewSession opens a session on a provisioned card. The key and the
// subject's rule set must already be installed (see card.PutKey and
// card.PutSealedRuleSet).
func NewSession(c *card.Card, docID, subject string, query *xpath.Path, opts Options) (*Session, error) {
	s := &Session{card: c, opts: opts, runs: make(chan *PreparedRun, 3)}
	if err := s.Restart(docID, subject, query); err != nil {
		return nil, err
	}
	return s, nil
}

// Restart re-arms the session for another evaluation on the same card
// under the same options, as NewSession would open it: an evaluation
// still in progress is aborted, and the session then waits for the
// header. Nothing of the evaluation before shows in the next one's
// output, meters or statistics; only its buffers are kept. Every run
// prepared for the evaluation before must have been released.
func (s *Session) Restart(docID, subject string, query *xpath.Path) error {
	s.Abort()
	if _, err := s.card.Key(docID); err != nil {
		return err
	}
	if _, err := s.card.RuleSet(subject, docID); err != nil {
		return err
	}
	s.docID, s.subject, s.query = docID, subject, query
	s.ctx = nil
	s.ram = mem.Scope{Parent: s.card.RAM}
	s.evalArmed = false
	s.lastStats = core.Stats{}
	s.emit.begin()
	s.value.active, s.value.chunkable = false, false
	s.value.buf, s.value.charged = s.value.buf[:0], 0
	s.phase = phaseHeader
	return nil
}

// DeliverTo tells the session where its output goes, for the rest of its
// life: from the next evaluation on the evaluator's events reach sink as
// the calls DecodeRecords would make from the session's records, Feed and
// FeedPrepared return no records, and an error of the sink aborts the
// evaluation. The link is charged as if the records had crossed it. This
// is for an owner whose sink stands as long as the session does (a
// terminal and its collector); a session never told returns records.
func (s *Session) DeliverTo(sink RecordSink) error {
	if s.phase == phaseDict || s.phase == phaseStream {
		return fmt.Errorf("soe: output redirected in mid-evaluation")
	}
	s.emit.sink = sink
	return nil
}

// LoadHeader installs and authenticates the container header.
func (s *Session) LoadHeader(hdrBytes []byte) error {
	if s.phase != phaseHeader {
		return fmt.Errorf("soe: header already loaded")
	}
	s.card.Meter.BytesToCard += int64(len(hdrBytes))
	s.card.Meter.APDUs += int64(apduCount(len(hdrBytes), s.card.Profile.MaxAPDUData))
	// Decoded into the header the session keeps, which keeps its document
	// id when the header names the session's document.
	h := &s.header
	h.DocID = s.docID
	if _, err := docenc.DecodeHeader(h, hdrBytes); err != nil {
		return s.abort(err)
	}
	ctx, err := s.card.DecryptContext(h.DocID)
	if err != nil {
		return s.abort(err)
	}
	if err := h.Verify(ctx); err != nil {
		return s.abort(fmt.Errorf("soe: header authentication: %w", err))
	}
	if h.DocID != s.docID {
		return s.abort(fmt.Errorf("soe: header is for document %q, session is for %q", h.DocID, s.docID))
	}
	s.ctx = ctx
	s.valueLimit = s.opts.MaxValue
	if s.valueLimit <= 0 {
		s.valueLimit = 8 * int(h.BlockPlain)
	}
	s.src.reset(&s.header, &s.ram)
	s.phase = phaseDict
	return nil
}

// NeedBlock reports the next block index the card wants, or -1 when the
// session is finished (or aborted).
func (s *Session) NeedBlock() int {
	switch s.phase {
	case phaseDict, phaseStream:
		want := s.src.wantOffset()
		if uint64(want) >= s.header.PayloadLen {
			return -1
		}
		return want / int(s.header.BlockPlain)
	default:
		return -1
	}
}

// NeedRun is the run-aware demand signal behind the terminal's
// prefetching pipeline. It reports the next block index the card wants
// (next, -1 when the session is finished) together with a contiguity
// bound: sure is the number of contiguous blocks, starting at next,
// that the session is certain to consume.
//
// The bound is derived from the header geometry — it never extends past
// the payload, so the terminal can size a batched read without
// overshooting the document — and from the evaluator's skip state: with
// the skip index disabled no skip or value jump can ever occur, so
// every remaining block is guaranteed to be wanted (sure covers the
// whole remainder and speculation is free of waste); while skipping
// remains possible only the block carrying the wanted offset is
// guaranteed, and anything a terminal fetches beyond it is speculation
// it must be prepared to discard.
func (s *Session) NeedRun() (next, sure int) {
	next = s.NeedBlock()
	if next < 0 {
		return -1, 0
	}
	if s.opts.DisableSkip {
		// Linear consumption: geometry alone bounds the run.
		return next, s.header.NumBlocks() - next
	}
	return next, 1
}

// Done reports whether the session completed successfully.
func (s *Session) Done() bool { return s.phase == phaseDone }

// Feed pushes one stored block into the card and returns the output
// records produced, valid until the next Feed — none when the session
// delivers to a sink (DeliverTo). The block must be the one NeedBlock
// asked for.
func (s *Session) Feed(blockIdx int, stored []byte) ([]byte, error) {
	if err := s.accepts(blockIdx); err != nil {
		return nil, err
	}

	// Link accounting: the block crosses the terminal->card link in
	// MaxAPDUData-sized chunks.
	s.card.Meter.BytesToCard += int64(len(stored))
	s.card.Meter.APDUs += int64(apduCount(len(stored), s.card.Profile.MaxAPDUData))

	// Decrypt under the block's own generation: after a delta re-publish
	// the untouched blocks keep the ciphertext (and version binding) of
	// the publication that last wrote them; the MAC'd header vouches for
	// the generation vector.
	n := max(len(stored)-secure.MACLen, 0) // a block shorter than its tag fails in the decrypt
	s.block = slices.Grow(s.block[:0], n)[:n]
	plain := s.block
	if err := s.ctx.DecryptBlockInto(plain, s.header.DocID, s.header.BlockGen(blockIdx), uint32(blockIdx), stored); err != nil {
		return nil, s.abort(err)
	}
	return s.feedPlain(blockIdx, plain)
}

// accepts checks that the session is taking blocks and that blockIdx is
// the one it wants.
func (s *Session) accepts(blockIdx int) error {
	if s.phase != phaseDict && s.phase != phaseStream {
		return fmt.Errorf("soe: session not accepting blocks (phase %d)", s.phase)
	}
	if want := s.NeedBlock(); blockIdx != want {
		return fmt.Errorf("soe: fed block %d, card wants %d", blockIdx, want)
	}
	return nil
}

// feedPlain is the part of feeding a block that follows its decryption,
// by Feed just now or by PrepareRun ahead of demand: charge the card for
// the crypto, validate the geometry, evaluate what the block completes.
func (s *Session) feedPlain(blockIdx int, plain []byte) ([]byte, error) {
	s.card.Meter.CryptoBytes += int64(len(plain))
	s.card.Meter.MACBytes += int64(len(plain))

	// Validate geometry: every block but the last is exactly BlockPlain.
	expect := int(s.header.BlockPlain)
	if blockIdx == s.header.NumBlocks()-1 {
		expect = int(s.header.PayloadLen) - blockIdx*int(s.header.BlockPlain)
	}
	if len(plain) != expect {
		return nil, s.abort(fmt.Errorf("%w: block %d has %d plaintext bytes, geometry says %d",
			secure.ErrIntegrity, blockIdx, len(plain), expect))
	}

	if err := s.src.feed(blockIdx, plain); err != nil {
		return nil, s.abort(err)
	}

	s.emit.begin()
	if s.phase == phaseDict {
		if err := s.tryFinishDict(); err != nil && err != docenc.ErrNeedMore {
			return nil, s.abort(err)
		}
	}
	if s.phase == phaseStream {
		if err := s.pump(); err != nil && err != docenc.ErrNeedMore {
			return nil, s.abort(err)
		}
	}
	return s.drainOut(), nil
}

// tryFinishDict attempts to decode the tag dictionary from the buffered
// payload prefix and, on success, arms the decoder and the evaluator. A
// dictionary cut short waits for more payload; any other fault in it
// fails the block that revealed it.
func (s *Session) tryFinishDict() error {
	n, err := s.dict.Decode(s.src.window())
	if errors.Is(err, tagdict.ErrTruncated) && s.src.windowEnd() < int(s.header.PayloadLen) {
		return docenc.ErrNeedMore
	}
	if err != nil {
		return fmt.Errorf("soe: dictionary: %w", err)
	}
	dict := &s.dict
	// The dictionary moves to secure stable storage for the session
	// (lazy name bindings are resolved from there, not from RAM); the
	// space is reclaimed when the session ends.
	dictBytes := dict.ByteSize()
	if err := s.card.EEPROM.Alloc(dictBytes); err != nil {
		return fmt.Errorf("soe: dictionary store: %w", err)
	}
	s.dictEEPROM = dictBytes
	s.card.Meter.EEPROMBytes += int64(dictBytes)
	if err := s.src.consume(n); err != nil {
		return err
	}

	rules, err := s.card.RuleSet(s.subject, s.docID)
	if err != nil {
		return err
	}
	s.emit.reset(dict)
	err = s.eval.Reset(core.Config{
		Rules:       rules,
		Query:       s.query,
		Dict:        dict,
		Emitter:     &s.emit,
		Gauge:       &s.ram,
		DisableSkip: s.opts.DisableSkip,
		DisableCopy: s.opts.DisableCopy,
	})
	if err != nil {
		return err
	}
	s.evalArmed = true
	s.dec.Reset(&s.src, dict)
	s.phase = phaseStream
	return nil
}

// pump decodes and evaluates items until the buffered input runs dry or
// the document ends.
func (s *Session) pump() error {
	defer s.syncMeter()
	for {
		s.src.mark()
		it, err := s.dec.Next()
		if err != nil {
			if err == docenc.ErrNeedMore {
				s.src.rollback()
			}
			return err
		}
		switch it.Kind {
		case docenc.ItemOpen:
			skip, err := s.eval.Open(it.Code, it.Meta)
			if err != nil {
				return err
			}
			if skip > 0 {
				if err := s.dec.SkipContent(it.Meta); err != nil {
					return err
				}
			}
		case docenc.ItemValue:
			if err := s.eval.Value(it.Text); err != nil {
				return err
			}
		case docenc.ItemValueStart:
			// Value skipping: a structural node's text with no pending
			// comparison is never needed — jump the bytes, which skips
			// their transfer and decryption entirely.
			if !s.opts.DisableSkip && !s.eval.NeedsValues() {
				if err := s.dec.SkipValue(); err != nil {
					return err
				}
				s.eval.SkipValue(it.Size)
				if err := s.src.compact(); err != nil {
					return err
				}
				continue
			}
			s.value.active = true
			s.value.chunkable = s.eval.CanChunkValues()
			s.value.buf = s.value.buf[:0]
			if !s.value.chunkable && it.Size > s.valueLimit {
				return fmt.Errorf("soe: a %d-byte value under an unresolved comparison exceeds the %d-byte secure buffer",
					it.Size, s.valueLimit)
			}
		case docenc.ItemValueChunk:
			if !s.value.active {
				return fmt.Errorf("soe: value chunk without a value start")
			}
			if s.value.chunkable {
				// Pass the piece straight through: bounded memory
				// regardless of value size.
				if err := s.eval.Value(it.Text); err != nil {
					return err
				}
			} else {
				if err := s.ram.Alloc(len(it.Text)); err != nil {
					return fmt.Errorf("soe: value buffer: %w", err)
				}
				s.value.charged += len(it.Text)
				s.value.buf = append(s.value.buf, it.Text...)
				if it.Last {
					err := s.eval.Value(s.value.buf)
					s.ram.Free(s.value.charged)
					s.value.charged = 0
					s.value.buf = s.value.buf[:0]
					if err != nil {
						return err
					}
				}
			}
			if it.Last {
				s.value.active = false
			}
		case docenc.ItemClose:
			if err := s.eval.Close(); err != nil {
				return err
			}
		case docenc.ItemEOF:
			if err := s.eval.Finish(); err != nil {
				return err
			}
			if err := s.emit.done(); err != nil {
				return err
			}
			s.finish()
			return nil
		}
		if err := s.src.compact(); err != nil {
			return err
		}
	}
}

// drainOut returns the output records of this Feed (none when the output
// went straight to a sink) and accounts for their trip over the link.
func (s *Session) drainOut() []byte {
	if n := s.emit.size; n > 0 {
		s.card.Meter.BytesFromCard += int64(n)
		// Responses piggyback on the command APDU; only overflow beyond
		// one response frame costs extra exchanges.
		extra := apduCount(n, 256) - 1
		if extra > 0 {
			s.card.Meter.APDUs += int64(extra)
		}
	}
	return s.emit.buf
}

// syncMeter folds the evaluator's work counters into the card meter
// (delta since the previous sync).
func (s *Session) syncMeter() {
	cur := s.eval.Stats()
	d := &s.card.Meter
	d.Events += int64(cur.Opens-s.lastStats.Opens) +
		int64(cur.Values-s.lastStats.Values) +
		int64(cur.Closes-s.lastStats.Closes)
	d.Transitions += int64(cur.TransitionsScanned - s.lastStats.TransitionsScanned)
	d.CopyBytes += cur.CopiedBytes - s.lastStats.CopiedBytes
	s.lastStats = cur
}

// finish releases session memory and closes the state machine.
func (s *Session) finish() {
	s.ram.Close()
	s.releaseEEPROM()
	s.phase = phaseDone
}

// releaseEEPROM reclaims the session-scoped stable storage.
func (s *Session) releaseEEPROM() {
	if s.dictEEPROM > 0 {
		s.card.EEPROM.Free(s.dictEEPROM)
		s.dictEEPROM = 0
	}
}

// Abort terminates the session, releasing its memory.
func (s *Session) Abort() {
	if s.phase != phaseDone && s.phase != phaseAborted {
		_ = s.abort(nil)
	}
}

func (s *Session) abort(err error) error {
	s.ram.Close()
	s.releaseEEPROM()
	s.phase = phaseAborted
	return err
}

// Stats reports the session's evaluation counters and memory high-water
// marks.
type Stats struct {
	Core    core.Stats
	RAMPeak int
}

// Stats returns the session statistics collected so far.
func (s *Session) Stats() Stats {
	st := Stats{RAMPeak: s.ram.Peak()}
	if s.evalArmed {
		st.Core = s.eval.Stats()
	}
	return st
}

// apduCount is the number of MaxData-sized APDUs needed for n bytes.
func apduCount(n, maxData int) int {
	if n <= 0 {
		return 0
	}
	if maxData <= 0 {
		return 1
	}
	return (n + maxData - 1) / maxData
}
