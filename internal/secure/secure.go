// Package secure implements the cryptographic envelope of the paper's
// architecture: documents are stored encrypted on the untrusted DSP, cut
// into cipher blocks so the SOE can decrypt them incrementally, and
// integrity-protected so that "the only way to mislead the access control
// rule evaluator is to tamper the input document, for example by
// substituting or modifying encrypted blocks" is detected (Section 2.1).
//
// Design choices:
//
//   - AES-128-CTR per block, with a keystream position derived from
//     (document, version, block index): random access, which the skip
//     index requires, and no padding overhead;
//   - a truncated HMAC-SHA-256 tag per block, bound to the document id,
//     version and block index: substituting a block by another (from the
//     same or another document, or from a previous version) is detected
//     even when surrounding blocks are never read — the property chained
//     MACs lack, and the reason the paper's skips need positional
//     integrity (see DESIGN.md);
//   - an authenticated header binding the document geometry, which
//     defeats truncation.
//
// Key sizes follow today's floor rather than the 2005 -era 3DES the
// e-gate card accelerated; the simulator's cost model, not the cipher
// identity, carries the performance fidelity.
package secure

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
)

// MACLen is the per-block authentication tag length. 8 bytes keeps the
// storage and transmission overhead close to the smartcard-era DES-MAC
// the original platform used, while 2^-64 forgery odds remain far beyond
// the attacker model of a data store.
const MACLen = 8

// HeaderMACLen authenticates the container header.
const HeaderMACLen = 16

// DocKey is the symmetric key material protecting one document: an
// encryption key and an independent MAC key.
type DocKey struct {
	Enc [16]byte
	Mac [32]byte
}

// NewDocKey draws a fresh random key pair.
func NewDocKey() (DocKey, error) {
	var k DocKey
	if _, err := rand.Read(k.Enc[:]); err != nil {
		return k, fmt.Errorf("secure: generating key: %w", err)
	}
	if _, err := rand.Read(k.Mac[:]); err != nil {
		return k, fmt.Errorf("secure: generating key: %w", err)
	}
	return k, nil
}

// KeyFromSeed derives a DocKey deterministically from a seed. Tests and
// deterministic workloads use it; production paths use NewDocKey.
func KeyFromSeed(seed string) DocKey {
	var k DocKey
	h := sha256.Sum256([]byte("sds-enc:" + seed))
	copy(k.Enc[:], h[:16])
	k.Mac = sha256.Sum256([]byte("sds-mac:" + seed))
	return k
}

// Marshal serializes the key (for PKI wrapping).
func (k DocKey) Marshal() []byte {
	out := make([]byte, 0, 48)
	out = append(out, k.Enc[:]...)
	out = append(out, k.Mac[:]...)
	return out
}

// UnmarshalDocKey reverses Marshal.
func UnmarshalDocKey(b []byte) (DocKey, error) {
	var k DocKey
	if len(b) != 48 {
		return k, fmt.Errorf("secure: key material must be 48 bytes, got %d", len(b))
	}
	copy(k.Enc[:], b[:16])
	copy(k.Mac[:], b[16:])
	return k, nil
}

// EncryptBlock produces the stored form of one plaintext block:
// ciphertext || tag. The stored block is len(plain)+MACLen bytes.
//
// One-shot convenience over a throwaway BlockContext; callers that
// touch more than one block of a key hold a BlockContext instead and
// pay the cipher and HMAC setup once.
func EncryptBlock(key DocKey, docID string, version uint32, blockIdx uint32, plain []byte) ([]byte, error) {
	c, err := NewBlockContext(key)
	if err != nil {
		return nil, err
	}
	return c.EncryptBlock(docID, version, blockIdx, plain)
}

// DecryptBlock verifies and decrypts a stored block. A tag mismatch
// (tampering, substitution, replay of another position or version)
// returns ErrIntegrity. One-shot convenience over a throwaway
// BlockContext (see EncryptBlock).
func DecryptBlock(key DocKey, docID string, version uint32, blockIdx uint32, stored []byte) ([]byte, error) {
	c, err := NewBlockContext(key)
	if err != nil {
		return nil, err
	}
	return c.DecryptBlock(docID, version, blockIdx, stored)
}

// ErrIntegrity reports tampered input.
var ErrIntegrity = fmt.Errorf("secure: integrity check failed")

// HeaderMAC authenticates the canonical header encoding.
func HeaderMAC(key DocKey, headerBytes []byte) [HeaderMACLen]byte {
	mac := hmac.New(sha256.New, key.Mac[:])
	mac.Write([]byte("hdr"))
	mac.Write(headerBytes)
	var out [HeaderMACLen]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// EncryptBlob seals a small standalone blob (rule sets on the DSP) with
// the same primitives, using block index 0 of a caller-chosen namespace.
func EncryptBlob(key DocKey, namespace string, version uint32, plain []byte) ([]byte, error) {
	return EncryptBlock(key, "blob:"+namespace, version, 0, plain)
}

// DecryptBlob opens an EncryptBlob result.
func DecryptBlob(key DocKey, namespace string, version uint32, sealed []byte) ([]byte, error) {
	return DecryptBlock(key, "blob:"+namespace, version, 0, sealed)
}
