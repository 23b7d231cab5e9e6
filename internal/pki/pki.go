// Package pki simulates the public-key infrastructure of the
// demonstration platform: document secret keys are "exchanged between
// users thanks to a public key infrastructure (PKI)", which the authors
// themselves "simulate [...] to keep the demonstration independent of a
// network connection" (Section 3, footnote 2). We make the same
// substitution: real asymmetric cryptography (X25519 ECDH + HKDF-style
// derivation), in-process registry instead of certificate chains.
//
// The flow it supports is the community-sharing scenario: the document
// owner wraps the document key for each community member; the member's
// terminal unwraps it and provisions the member's card.
package pki

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/secure"
)

// Principal is one registered user: a name and an X25519 key pair. The
// private key never leaves the principal (in the deployed system it lives
// in the user's card).
type Principal struct {
	Name string
	priv *ecdh.PrivateKey
}

// Authority is the simulated PKI: a registry of principals.
type Authority struct {
	mu    sync.Mutex
	users map[string]*Principal
}

// NewAuthority returns an Authority drawing keys from crypto/rand.
func NewAuthority() *Authority {
	return &Authority{users: make(map[string]*Principal)}
}

// Register creates (or returns) the named principal.
func (a *Authority) Register(name string) (*Principal, error) {
	if name == "" {
		return nil, fmt.Errorf("pki: empty principal name")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.users[name]; ok {
		return p, nil
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generating key for %s: %w", name, err)
	}
	p := &Principal{Name: name, priv: priv}
	a.users[name] = p
	return p, nil
}

// Lookup returns a registered principal.
func (a *Authority) Lookup(name string) (*Principal, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.users[name]
	if !ok {
		return nil, fmt.Errorf("pki: unknown principal %q", name)
	}
	return p, nil
}

// WrappedKey is a document key sealed for one recipient.
type WrappedKey struct {
	// Sender and Recipient name the endpoints (authenticated by the KEK
	// derivation: only this pair derives the same secret).
	Sender    string
	Recipient string
	// DocID binds the wrap to a document.
	DocID string
	// Sealed is the encrypted key material.
	Sealed []byte
}

// Wrap seals a document key from sender to the named recipient.
func (a *Authority) Wrap(sender *Principal, recipient string, docID string, key secure.DocKey) (*WrappedKey, error) {
	rcpt, err := a.Lookup(recipient)
	if err != nil {
		return nil, err
	}
	kek, err := deriveKEK(sender.priv, rcpt.priv.PublicKey(), sender.Name, recipient, docID)
	if err != nil {
		return nil, err
	}
	sealed, err := secure.EncryptBlob(kek, "pki:"+docID, 0, key.Marshal())
	if err != nil {
		return nil, err
	}
	return &WrappedKey{Sender: sender.Name, Recipient: recipient, DocID: docID, Sealed: sealed}, nil
}

// Unwrap opens a wrapped key as the recipient.
func (a *Authority) Unwrap(recipient *Principal, w *WrappedKey) (secure.DocKey, error) {
	if w.Recipient != recipient.Name {
		return secure.DocKey{}, fmt.Errorf("pki: wrap is for %q, not %q", w.Recipient, recipient.Name)
	}
	sender, err := a.Lookup(w.Sender)
	if err != nil {
		return secure.DocKey{}, err
	}
	kek, err := deriveKEK(recipient.priv, sender.priv.PublicKey(), w.Sender, recipient.Name, w.DocID)
	if err != nil {
		return secure.DocKey{}, err
	}
	plain, err := secure.DecryptBlob(kek, "pki:"+w.DocID, 0, w.Sealed)
	if err != nil {
		return secure.DocKey{}, fmt.Errorf("pki: unwrapping: %w", err)
	}
	return secure.UnmarshalDocKey(plain)
}

// deriveKEK computes the pairwise key-encryption key: ECDH shared secret
// expanded with the (sender, recipient, doc) context. Both directions
// derive the same KEK because X25519(a, B) == X25519(b, A) and the
// context strings are ordered by role, not by who computes.
func deriveKEK(own *ecdh.PrivateKey, peer *ecdh.PublicKey, sender, recipient, docID string) (secure.DocKey, error) {
	shared, err := own.ECDH(peer)
	if err != nil {
		return secure.DocKey{}, fmt.Errorf("pki: ECDH: %w", err)
	}
	expand := func(label string) []byte {
		mac := hmac.New(sha256.New, shared)
		mac.Write([]byte(label))
		mac.Write([]byte(sender))
		mac.Write([]byte{0})
		mac.Write([]byte(recipient))
		mac.Write([]byte{0})
		mac.Write([]byte(docID))
		return mac.Sum(nil)
	}
	var kek secure.DocKey
	copy(kek.Enc[:], expand("kek-enc"))
	copy(kek.Mac[:], expand("kek-mac"))
	return kek, nil
}
