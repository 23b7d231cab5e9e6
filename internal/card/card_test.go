package card

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/accessrule"
	"repro/internal/secure"
	"repro/internal/xpath"
)

func ruleSet(subject, docID string, version uint32) *accessrule.RuleSet {
	return &accessrule.RuleSet{
		Subject:     subject,
		DocID:       docID,
		Version:     version,
		DefaultSign: accessrule.Deny,
		Rules: []accessrule.Rule{
			{ID: "r1", Sign: accessrule.Permit, Object: xpath.MustParse("//a")},
		},
	}
}

func TestKeyStore(t *testing.T) {
	c := New(EGate)
	key := secure.KeyFromSeed("k")
	if _, err := c.Key("doc"); err == nil {
		t.Error("unknown doc must fail")
	}
	if err := c.PutKey("doc", key); err != nil {
		t.Fatal(err)
	}
	got, err := c.Key("doc")
	if err != nil || got != key {
		t.Fatalf("Key() = %v, %v", got, err)
	}
	if c.EEPROM.InUse() == 0 {
		t.Error("key storage must charge EEPROM")
	}
	// Overwriting the same doc must not double-charge.
	before := c.EEPROM.InUse()
	if err := c.PutKey("doc", secure.KeyFromSeed("k2")); err != nil {
		t.Fatal(err)
	}
	if c.EEPROM.InUse() != before {
		t.Error("key replacement double-charged EEPROM")
	}
}

func TestRuleSetVersionMonotonic(t *testing.T) {
	c := New(EGate)
	if err := c.PutRuleSet(ruleSet("u", "d", 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.PutRuleSet(ruleSet("u", "d", 4)); err == nil {
		t.Fatal("rollback to version 4 accepted")
	}
	if err := c.PutRuleSet(ruleSet("u", "d", 5)); err != nil {
		t.Fatal("same-version refresh must be accepted")
	}
	if err := c.PutRuleSet(ruleSet("u", "d", 9)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.RuleSet("u", "d")
	if err != nil || rs.Version != 9 {
		t.Fatalf("RuleSet() = %+v, %v", rs, err)
	}
}

func TestRuleSetFallbackToDocIndependent(t *testing.T) {
	c := New(EGate)
	generic := ruleSet("u", "", 1)
	if err := c.PutRuleSet(generic); err != nil {
		t.Fatal(err)
	}
	rs, err := c.RuleSet("u", "anydoc")
	if err != nil || rs != generic {
		t.Fatalf("fallback failed: %v", err)
	}
	if _, err := c.RuleSet("nobody", "anydoc"); err == nil {
		t.Error("unknown subject must fail")
	}
}

func TestPutSealedRuleSet(t *testing.T) {
	c := New(EGate)
	key := secure.KeyFromSeed("k")
	if err := c.PutKey("d", key); err != nil {
		t.Fatal(err)
	}
	rs := ruleSet("alice", "d", 1)
	plain, _ := rs.MarshalBinary()
	sealed, err := SealRuleSet(key, rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutSealedRuleSet("d", "alice", sealed); err != nil {
		t.Fatal(err)
	}
	// Wrong subject namespace: reject.
	if err := c.PutSealedRuleSet("d", "bob", sealed); err == nil {
		t.Error("cross-subject sealed blob accepted")
	}
	// Inner subject mismatch: seal alice's blob under bob's namespace.
	forged, _ := secure.EncryptBlob(key, RuleBlobNamespace("d", "bob"), 0, plain)
	if err := c.PutSealedRuleSet("d", "bob", forged); err == nil ||
		!strings.Contains(err.Error(), "expected") {
		t.Errorf("subject mismatch not caught: %v", err)
	}
}

// TestSealRuleSetVersionsShareNoKeystream: two versions of one subject's
// rule set are sealed at one position, version 0 of the (document,
// subject) namespace. The store holding both must not learn the XOR of
// their encodings, and each still opens and installs in version order.
func TestSealRuleSetVersionsShareNoKeystream(t *testing.T) {
	key := secure.KeyFromSeed("k")
	v1, v2 := ruleSet("alice", "d", 1), ruleSet("alice", "d", 2)
	v2.Rules[0].Object = xpath.MustParse("//b")
	var sealed, plain [2][]byte
	for i, rs := range []*accessrule.RuleSet{v1, v2} {
		var err error
		if sealed[i], err = SealRuleSet(key, rs); err != nil {
			t.Fatal(err)
		}
		plain[i], _ = rs.MarshalBinary()
		// Byte for byte what a hand seal at the namespace gives.
		if hand, _ := secure.EncryptBlob(key, RuleBlobNamespace("d", "alice"), 0, plain[i]); !bytes.Equal(hand, sealed[i]) {
			t.Fatalf("version %d: SealRuleSet differs from EncryptBlob at the rule namespace", rs.Version)
		}
	}
	n := min(len(plain[0]), len(plain[1]))
	same := true
	for i := 0; i < n; i++ {
		same = same && sealed[0][i]^sealed[1][i] == plain[0][i]^plain[1][i]
	}
	if same {
		t.Fatal("two rule-set versions share a keystream: XOR(ct) = XOR(pt)")
	}
	c := New(EGate)
	if err := c.PutKey("d", key); err != nil {
		t.Fatal(err)
	}
	if err := c.PutSealedRuleSet("d", "alice", sealed[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.PutSealedRuleSet("d", "alice", sealed[0]); err == nil {
		t.Fatal("the v1 blob rolled back v2")
	}
}

func TestMeterPricing(t *testing.T) {
	m := Meter{
		BytesToCard:   2048,
		BytesFromCard: 0,
		APDUs:         10,
		CryptoBytes:   1 << 20,
		Events:        1000,
		Transitions:   5000,
	}
	tb := m.Price(EGate)
	// 2048 payload + 100 overhead bytes over a 2048 B/s link ≈ 1.05 s.
	if tb.Transfer < time.Second || tb.Transfer > 2*time.Second {
		t.Errorf("transfer = %v, want ~1.05s", tb.Transfer)
	}
	// 1 MiB at 40 cycles/byte on 33 MHz ≈ 1.27 s.
	if tb.Crypto < time.Second || tb.Crypto > 2*time.Second {
		t.Errorf("crypto = %v, want ~1.3s", tb.Crypto)
	}
	if tb.Total() != tb.Transfer+tb.Crypto+tb.Evaluate+tb.EEPROM {
		t.Error("Total must be the component sum")
	}
	// The same work on the modern profile must be much faster.
	if fast := m.Price(Modern); fast.Total() >= tb.Total()/10 {
		t.Errorf("modern profile not meaningfully faster: %v vs %v", fast.Total(), tb.Total())
	}
}

func TestMeterAdd(t *testing.T) {
	a := Meter{BytesToCard: 1, APDUs: 2, Events: 3}
	a.Add(Meter{BytesToCard: 10, APDUs: 20, Events: 30, CryptoBytes: 5})
	if a.BytesToCard != 11 || a.APDUs != 22 || a.Events != 33 || a.CryptoBytes != 5 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{EGate, Modern, Unconstrained} {
		if p.CPUHz <= 0 || p.LinkBytesPerSec <= 0 || p.MaxAPDUData <= 0 {
			t.Errorf("profile %s has zero constants: %+v", p.Name, p)
		}
	}
	if EGate.RAMBudget != 1024 {
		t.Errorf("the e-gate profile must model the paper's 1 KB, got %d", EGate.RAMBudget)
	}
	if EGate.LinkBytesPerSec != 2048 {
		t.Errorf("the e-gate profile must model the paper's 2 KB/s, got %v", EGate.LinkBytesPerSec)
	}
}

func TestEEPROMBudgetEnforced(t *testing.T) {
	p := EGate
	p.EEPROMBudget = 100
	c := New(p)
	rs := ruleSet("u", "d", 1)
	for i := 0; i < 50; i++ {
		rs.Rules = append(rs.Rules, accessrule.Rule{
			ID: rs.Rules[len(rs.Rules)-1].ID + "x", Sign: accessrule.Permit,
			Object: xpath.MustParse("//a"),
		})
	}
	if err := c.PutRuleSet(rs); err == nil {
		t.Error("oversized rule set must exhaust the EEPROM budget")
	}
}

func TestMeterSub(t *testing.T) {
	before := Meter{BytesToCard: 10, APDUs: 2, CryptoBytes: 100, Events: 5}
	after := before
	after.Add(Meter{
		BytesToCard: 7, BytesFromCard: 3, APDUs: 1, CryptoBytes: 64,
		MACBytes: 64, Events: 9, Transitions: 40, CopyBytes: 12, EEPROMBytes: 6,
	})
	d := after.Sub(before)
	want := Meter{
		BytesToCard: 7, BytesFromCard: 3, APDUs: 1, CryptoBytes: 64,
		MACBytes: 64, Events: 9, Transitions: 40, CopyBytes: 12, EEPROMBytes: 6,
	}
	if d != want {
		t.Fatalf("Sub delta = %+v, want %+v", d, want)
	}
	// Sub inverts Add: (m + o) - o == m for every field.
	if back := after.Sub(d); back != before {
		t.Fatalf("Sub does not invert Add: %+v != %+v", back, before)
	}
	if zero := before.Sub(before); zero != (Meter{}) {
		t.Fatalf("self-difference must be zero, got %+v", zero)
	}
}

func TestRuleVersion(t *testing.T) {
	c := New(Modern)
	if got := c.RuleVersion("u", "d"); got != -1 {
		t.Fatalf("unprovisioned RuleVersion = %d, want -1", got)
	}
	rs := ruleSet("u", "d", 3)
	if err := c.PutRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	if got := c.RuleVersion("u", "d"); got != 3 {
		t.Fatalf("RuleVersion = %d, want 3", got)
	}
}
