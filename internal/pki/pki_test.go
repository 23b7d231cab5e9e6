package pki

import (
	"testing"

	"repro/internal/secure"
)

func TestWrapUnwrap(t *testing.T) {
	a := NewAuthority()
	alice, err := a.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := a.Register("bob")
	if err != nil {
		t.Fatal(err)
	}
	key := secure.KeyFromSeed("doc-key")
	w, err := a.Wrap(alice, "bob", "doc1", key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Unwrap(bob, w)
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatal("unwrapped key differs")
	}
}

func TestUnwrapWrongRecipient(t *testing.T) {
	a := NewAuthority()
	alice, _ := a.Register("alice")
	_, _ = a.Register("bob")
	carol, _ := a.Register("carol")
	w, err := a.Wrap(alice, "bob", "doc1", secure.KeyFromSeed("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Unwrap(carol, w); err == nil {
		t.Error("carol unwrapped bob's key")
	}
	// Even lying about the recipient field must fail (the KEK binds the
	// true key pair).
	w.Recipient = "carol"
	if _, err := a.Unwrap(carol, w); err == nil {
		t.Error("renamed wrap unwrapped by the wrong key pair")
	}
}

func TestWrapBindsDocument(t *testing.T) {
	a := NewAuthority()
	alice, _ := a.Register("alice")
	bob, _ := a.Register("bob")
	w, _ := a.Wrap(alice, "bob", "doc1", secure.KeyFromSeed("k"))
	w.DocID = "doc2"
	if _, err := a.Unwrap(bob, w); err == nil {
		t.Error("wrap replayed for another document")
	}
}

func TestWrapTamperDetected(t *testing.T) {
	a := NewAuthority()
	alice, _ := a.Register("alice")
	bob, _ := a.Register("bob")
	w, _ := a.Wrap(alice, "bob", "doc1", secure.DocKey{})
	w.Sealed[3] ^= 0xFF
	if _, err := a.Unwrap(bob, w); err == nil {
		t.Error("tampered wrap accepted")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	a := NewAuthority()
	p1, _ := a.Register("alice")
	p2, _ := a.Register("alice")
	if p1 != p2 {
		t.Error("re-registering must return the same principal")
	}
	if _, err := a.Register(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := a.Lookup("nobody"); err == nil {
		t.Error("unknown lookup succeeded")
	}
}

func TestRandomAuthority(t *testing.T) {
	a := NewAuthority()
	alice, err := a.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := a.Register("bob")
	if err != nil {
		t.Fatal(err)
	}
	key, err := secure.NewDocKey()
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.Wrap(bob, "alice", "d", key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Unwrap(alice, w)
	if err != nil || got != key {
		t.Fatalf("random-key round trip failed: %v", err)
	}
}

// TestWrapRotationSharesNoKeystream: the key-encryption key is fixed per
// (sender, recipient, document), so a wrap before and after a key
// rotation is sealed twice under one KEK at one position. The store
// holding both must not learn the XOR of the two document keys, and the
// recipient unwraps each.
func TestWrapRotationSharesNoKeystream(t *testing.T) {
	a := NewAuthority()
	alice, _ := a.Register("alice")
	bob, _ := a.Register("bob")
	keys := []secure.DocKey{secure.KeyFromSeed("before"), secure.KeyFromSeed("after")}
	var wraps []*WrappedKey
	for _, k := range keys {
		w, err := a.Wrap(alice, "bob", "doc1", k)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := a.Unwrap(bob, w); err != nil || got != k {
			t.Fatalf("unwrap after rotation: %v", err)
		}
		wraps = append(wraps, w)
	}
	pa, pb := keys[0].Marshal(), keys[1].Marshal()
	same := true
	for i := range pa {
		same = same && wraps[0].Sealed[i]^wraps[1].Sealed[i] == pa[i]^pb[i]
	}
	if same {
		t.Fatal("two wraps under one KEK share a keystream: XOR(ct) = XOR(pt)")
	}
}
