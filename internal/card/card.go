// Package card models the smart-card hardware of the demonstration: the
// resource envelope of the Axalto e-gate card the paper runs on ("a
// powerful CPU and strong security features but still [...] a limited
// memory (only 1 KB of RAM available for on-board applications) and a low
// bandwidth (2KB/s)", Section 3).
//
// The paper's own pre-demonstration evaluation used a cycle-accurate
// hardware simulator; this package plays that role for the reproduction.
// It provides:
//
//   - Profile: the calibrated constants of a card model (CPU rate, link
//     rate, per-byte crypto costs, RAM/EEPROM budgets);
//   - Card: enforced secure-RAM and EEPROM gauges plus a Meter that
//     accumulates simulated work and converts it into a simulated time
//     breakdown (transfer / decrypt+MAC / evaluation), the three cost
//     drivers the paper's experiments (internal/bench) decompose;
//   - the key and rule stores a provisioned card keeps in its secure
//     stable memory.
//
// Simulated time is derived from counters, never from wall-clock, so
// experiment results are deterministic and machine-independent.
package card

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/accessrule"
	"repro/internal/mem"
	"repro/internal/secure"
)

// Profile holds the calibrated constants of one card model.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// CPUHz is the effective application CPU rate.
	CPUHz float64
	// RAMBudget is the working memory available to the applet, enforced.
	RAMBudget int
	// EEPROMBudget is the stable storage available, enforced.
	EEPROMBudget int
	// LinkBytesPerSec is the terminal<->card throughput.
	LinkBytesPerSec float64
	// APDUOverheadBytes is the framing cost charged per APDU exchange.
	APDUOverheadBytes int
	// MaxAPDUData is the data bytes one APDU may carry.
	MaxAPDUData int
	// CyclesPerByteCrypto prices block decryption per byte (the e-gate
	// has a crypto co-processor; software AES on a modern card is priced
	// differently).
	CyclesPerByteCrypto float64
	// CyclesPerByteMAC prices integrity verification per byte.
	CyclesPerByteMAC float64
	// CyclesPerEvent is the base cost of handling one parsed event.
	CyclesPerEvent float64
	// CyclesPerTransition prices one automaton transition scan.
	CyclesPerTransition float64
	// CyclesPerCopyByte prices copy-through forwarding per byte.
	CyclesPerCopyByte float64
	// CyclesPerEEPROMByte prices stable-storage writes per byte.
	CyclesPerEEPROMByte float64
}

// EGate approximates the Axalto e-gate of the demonstration: 1 KB of
// applet RAM, a 2 KB/s link, a ~33 MHz-class processor with hardware
// crypto, and slow EEPROM writes.
var EGate = Profile{
	Name:                "e-gate",
	CPUHz:               33e6,
	RAMBudget:           1024,
	EEPROMBudget:        32 * 1024,
	LinkBytesPerSec:     2048,
	APDUOverheadBytes:   10,
	MaxAPDUData:         255,
	CyclesPerByteCrypto: 40, // hardware 3DES-class engine
	CyclesPerByteMAC:    40,
	CyclesPerEvent:      600,
	CyclesPerTransition: 60,
	CyclesPerCopyByte:   8,
	CyclesPerEEPROMByte: 1000,
}

// Modern approximates a contemporary secure element: more RAM, USB-class
// link, faster core.
var Modern = Profile{
	Name:                "modern-se",
	CPUHz:               200e6,
	RAMBudget:           16 * 1024,
	EEPROMBudget:        512 * 1024,
	LinkBytesPerSec:     1 << 20, // ~1 MB/s
	APDUOverheadBytes:   10,
	MaxAPDUData:         255,
	CyclesPerByteCrypto: 20,
	CyclesPerByteMAC:    20,
	CyclesPerEvent:      400,
	CyclesPerTransition: 40,
	CyclesPerCopyByte:   4,
	CyclesPerEEPROMByte: 400,
}

// Unconstrained is the "trusted terminal" profile used by baselines: no
// budgets, negligible costs. It isolates algorithmic behaviour from the
// hardware envelope.
var Unconstrained = Profile{
	Name:              "unconstrained",
	CPUHz:             1e9,
	LinkBytesPerSec:   1 << 30,
	APDUOverheadBytes: 0,
	MaxAPDUData:       1 << 20,
}

// Meter accumulates simulated work.
type Meter struct {
	BytesToCard   int64 // link traffic toward the card (incl. overhead)
	BytesFromCard int64 // link traffic from the card
	APDUs         int64
	CryptoBytes   int64 // bytes decrypted
	MACBytes      int64 // bytes MAC-verified
	Events        int64 // parsed events handled
	Transitions   int64 // automaton transitions scanned
	CopyBytes     int64 // bytes forwarded in copy-through mode
	EEPROMBytes   int64 // stable-storage bytes written
}

// Add accumulates another meter (per-subscriber aggregation).
func (m *Meter) Add(o Meter) {
	m.BytesToCard += o.BytesToCard
	m.BytesFromCard += o.BytesFromCard
	m.APDUs += o.APDUs
	m.CryptoBytes += o.CryptoBytes
	m.MACBytes += o.MACBytes
	m.Events += o.Events
	m.Transitions += o.Transitions
	m.CopyBytes += o.CopyBytes
	m.EEPROMBytes += o.EEPROMBytes
}

// Sub returns the field-wise difference m - o: the work performed since
// the snapshot o was taken (per-query deltas in proxy and dissem).
func (m Meter) Sub(o Meter) Meter {
	return Meter{
		BytesToCard:   m.BytesToCard - o.BytesToCard,
		BytesFromCard: m.BytesFromCard - o.BytesFromCard,
		APDUs:         m.APDUs - o.APDUs,
		CryptoBytes:   m.CryptoBytes - o.CryptoBytes,
		MACBytes:      m.MACBytes - o.MACBytes,
		Events:        m.Events - o.Events,
		Transitions:   m.Transitions - o.Transitions,
		CopyBytes:     m.CopyBytes - o.CopyBytes,
		EEPROMBytes:   m.EEPROMBytes - o.EEPROMBytes,
	}
}

// TimeBreakdown is a simulated elapsed-time decomposition.
type TimeBreakdown struct {
	Transfer time.Duration // link transmission
	Crypto   time.Duration // decryption + integrity
	Evaluate time.Duration // parsing + automata + copy-through
	EEPROM   time.Duration // stable-storage writes
}

// Total sums the components (the model is additive: the e-gate applet is
// single-threaded and the link is half-duplex).
func (t TimeBreakdown) Total() time.Duration {
	return t.Transfer + t.Crypto + t.Evaluate + t.EEPROM
}

// Price converts accumulated work into simulated time under a profile.
func (m Meter) Price(p Profile) TimeBreakdown {
	secToDur := func(s float64) time.Duration {
		return time.Duration(s * float64(time.Second))
	}
	linkBytes := float64(m.BytesToCard+m.BytesFromCard) +
		float64(m.APDUs)*float64(p.APDUOverheadBytes)
	cycles := float64(m.CryptoBytes)*p.CyclesPerByteCrypto +
		float64(m.MACBytes)*p.CyclesPerByteMAC
	evalCycles := float64(m.Events)*p.CyclesPerEvent +
		float64(m.Transitions)*p.CyclesPerTransition +
		float64(m.CopyBytes)*p.CyclesPerCopyByte
	eepromCycles := float64(m.EEPROMBytes) * p.CyclesPerEEPROMByte
	return TimeBreakdown{
		Transfer: secToDur(linkBytes / p.LinkBytesPerSec),
		Crypto:   secToDur(cycles / p.CPUHz),
		Evaluate: secToDur(evalCycles / p.CPUHz),
		EEPROM:   secToDur(eepromCycles / p.CPUHz),
	}
}

// Card is one simulated device: budgets, meter and provisioned secrets.
//
// Provisioning calls (PutKey, PutRuleSet, PutSealedRuleSet, Key,
// RuleSet, RuleVersion) may race each other from multiple goroutines;
// the internal mutex keeps the secret store and their meter/EEPROM
// accounting consistent. The card still models a single-threaded
// applet, so nothing may run concurrently with a live session on the
// same card — not even provisioning: sessions touch the Meter and the
// RAM/EEPROM gauges without the lock. The fleet gateway enforces this
// by holding the per-card lock across both provisioning and queries.
type Card struct {
	Profile Profile
	RAM     *mem.Tracking
	EEPROM  *mem.Tracking
	Meter   Meter

	mu       sync.Mutex // guards keys, ctxs and rulesets
	keys     map[string]secure.DocKey
	ctxs     map[string]*secure.BlockContext
	rulesets map[string]*storedRuleSet
}

// storedRuleSet is a provisioned rule set with its anti-rollback floor.
type storedRuleSet struct {
	rs    *accessrule.RuleSet
	bytes int
}

// New returns a provisionable card with the profile's budgets enforced.
func New(p Profile) *Card {
	return &Card{
		Profile:  p,
		RAM:      mem.NewTracking(p.RAMBudget),
		EEPROM:   mem.NewTracking(p.EEPROMBudget),
		keys:     make(map[string]secure.DocKey),
		ctxs:     make(map[string]*secure.BlockContext),
		rulesets: make(map[string]*storedRuleSet),
	}
}

// PutKey stores a document key in secure stable memory. In the deployed
// architecture keys arrive "via a secure channel from different sources
// (trusted server, license provider, ...)" (Section 2.1); the simulator
// models the result, not the channel.
func (c *Card) PutKey(docID string, key secure.DocKey) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.keys[docID]; !ok {
		if err := c.EEPROM.Alloc(48 + len(docID)); err != nil {
			return fmt.Errorf("card: key store: %w", err)
		}
		c.Meter.EEPROMBytes += 48 + int64(len(docID))
	} else if old != key {
		delete(c.ctxs, docID) // rotated key: drop the amortized cipher state
	}
	c.keys[docID] = key
	return nil
}

// DecryptContext returns the card's amortized cipher state for docID:
// the AES schedule and precomputed HMAC pads of the document key, built
// once and shared by every session pulling that document through this
// card. Rotating the key via PutKey invalidates the cached context. The
// returned context is immutable and safe for concurrent use.
func (c *Card) DecryptContext(docID string) (*secure.BlockContext, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctx, ok := c.ctxs[docID]; ok {
		return ctx, nil
	}
	key, ok := c.keys[docID]
	if !ok {
		return nil, fmt.Errorf("card: no key for document %q", docID)
	}
	ctx, err := secure.NewBlockContext(key)
	if err != nil {
		return nil, fmt.Errorf("card: building decrypt context: %w", err)
	}
	c.ctxs[docID] = ctx
	return ctx, nil
}

// Key fetches a provisioned key.
func (c *Card) Key(docID string) (secure.DocKey, error) {
	c.mu.Lock()
	k, ok := c.keys[docID]
	c.mu.Unlock()
	if !ok {
		return secure.DocKey{}, fmt.Errorf("card: no key for document %q", docID)
	}
	return k, nil
}

// PutRuleSet installs a subject's rule set for a document, enforcing
// version monotonicity: a replayed older set (a revoked right) is
// rejected, which is what makes DSP-side replay of stale rule blobs
// useless.
func (c *Card) PutRuleSet(rs *accessrule.RuleSet) error {
	if err := rs.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := rs.Subject + "\x00" + rs.DocID
	old := c.rulesets[key]
	if old != nil && rs.Version < old.rs.Version {
		return fmt.Errorf("card: rule set version %d older than installed %d (replay rejected)",
			rs.Version, old.rs.Version)
	}
	blob, err := rs.MarshalBinary()
	if err != nil {
		return err
	}
	if old != nil {
		c.EEPROM.Free(old.bytes)
	}
	if err := c.EEPROM.Alloc(len(blob)); err != nil {
		if old != nil {
			_ = c.EEPROM.Alloc(old.bytes) // restore accounting
		}
		return fmt.Errorf("card: rule store: %w", err)
	}
	c.Meter.EEPROMBytes += int64(len(blob))
	c.rulesets[key] = &storedRuleSet{rs: rs, bytes: len(blob)}
	return nil
}

// SealRuleSet is the form of rs the store holds and PutSealedRuleSet
// opens: a blob sealed under the document key at the (document,
// subject) namespace. Every version of the subject's rule set is sealed
// at version 0 of that namespace: the card cannot know a version before
// it opens the blob, and the seal gives two different plaintexts at one
// position unrelated keystreams.
func SealRuleSet(key secure.DocKey, rs *accessrule.RuleSet) ([]byte, error) {
	plain, err := rs.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return secure.EncryptBlob(key, RuleBlobNamespace(rs.DocID, rs.Subject), 0, plain)
}

// PutSealedRuleSet installs a rule set delivered in its encrypted DSP
// form (SealRuleSet), opened through the document's cached context. The
// seal binds the (document, subject) pair, so the untrusted store cannot
// hand one subject another subject's rights; version monotonicity
// (PutRuleSet) defeats replay of revoked sets.
func (c *Card) PutSealedRuleSet(docID, subject string, sealed []byte) error {
	ctx, err := c.DecryptContext(docID)
	if err != nil {
		return err
	}
	plain := make([]byte, max(len(sealed)-secure.MACLen, 0)) // a blob shorter than its tag fails the open
	if err := ctx.DecryptBlockInto(plain, secure.BlobID(RuleBlobNamespace(docID, subject)), 0, 0, sealed); err != nil {
		return fmt.Errorf("card: unsealing rule set: %w", err)
	}
	c.mu.Lock()
	c.Meter.CryptoBytes += int64(len(plain))
	c.Meter.MACBytes += int64(len(plain))
	c.mu.Unlock()
	rs, err := accessrule.UnmarshalRuleSet(plain)
	if err != nil {
		return err
	}
	if rs.Subject != subject || rs.DocID != docID {
		return fmt.Errorf("card: sealed rule set is for (%q,%q), expected (%q,%q)",
			rs.Subject, rs.DocID, subject, docID)
	}
	return c.PutRuleSet(rs)
}

// RuleBlobNamespace is the sealing namespace of a (document, subject)
// rule set (see SealRuleSet).
func RuleBlobNamespace(docID, subject string) string {
	return docID + "|" + subject
}

// RuleSet fetches the installed set for (subject, doc), falling back to
// the subject's document-independent set.
func (c *Card) RuleSet(subject, docID string) (*accessrule.RuleSet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.rulesets[subject+"\x00"+docID]; ok {
		return s.rs, nil
	}
	if s, ok := c.rulesets[subject+"\x00"]; ok {
		return s.rs, nil
	}
	return nil, fmt.Errorf("card: no rule set installed for subject %q on document %q", subject, docID)
}

// RuleVersion reports the version of the installed rule set for
// (subject, doc), or -1 when none is installed — the fleet's cheap
// freshness check before deciding to re-pull the sealed blob.
func (c *Card) RuleVersion(subject, docID string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.rulesets[subject+"\x00"+docID]; ok {
		return int64(s.rs.Version)
	}
	if s, ok := c.rulesets[subject+"\x00"]; ok {
		return int64(s.rs.Version)
	}
	return -1
}
