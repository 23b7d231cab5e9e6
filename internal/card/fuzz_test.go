package card

import (
	"reflect"
	"testing"

	"repro/internal/accessrule"
	"repro/internal/secure"
)

// FuzzPutSealedRuleSet seals arbitrary bytes under the card's key, as an
// honest publisher would seal a rule set, and installs them over an
// installed set. Opening never panics; an accepted set is the one the
// plaintext decodes to; a refused one leaves the EEPROM charge and the
// installed set as they were.
func FuzzPutSealedRuleSet(f *testing.F) {
	for _, rs := range []*accessrule.RuleSet{
		ruleSet("alice", "d", 3), // accepted
		ruleSet("alice", "d", 1), // older than the installed set
		ruleSet("bob", "d", 3),   // another subject's
		ruleSet("alice", "", 3),  // another document's
	} {
		blob, err := rs.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	key := secure.KeyFromSeed("fuzz")
	f.Fuzz(func(t *testing.T, plain []byte) {
		c := New(EGate)
		if err := c.PutKey("d", key); err != nil {
			t.Fatal(err)
		}
		installed := ruleSet("alice", "d", 2)
		if err := c.PutRuleSet(installed); err != nil {
			t.Fatal(err)
		}
		inUse := c.EEPROM.InUse()
		sealed, err := secure.EncryptBlob(key, RuleBlobNamespace("d", "alice"), 0, plain)
		if err != nil {
			t.Fatal(err)
		}
		err = c.PutSealedRuleSet("d", "alice", sealed)
		got, gerr := c.RuleSet("alice", "d")
		if gerr != nil {
			t.Fatalf("no rule set installed after the install: %v", gerr)
		}
		if err != nil {
			if c.EEPROM.InUse() != inUse {
				t.Fatalf("refused install (%v) moved the EEPROM charge %d → %d", err, inUse, c.EEPROM.InUse())
			}
			if got != installed {
				t.Fatalf("refused install (%v) replaced the installed set", err)
			}
			return
		}
		want, err := accessrule.UnmarshalRuleSet(plain)
		if err != nil {
			t.Fatalf("the card accepted a plaintext the decoder refuses: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("installed %+v, the plaintext decodes to %+v", got, want)
		}
	})
}
