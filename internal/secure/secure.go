// Package secure implements the cryptographic envelope of the paper's
// architecture: documents are stored encrypted on the untrusted DSP, cut
// into cipher blocks so the SOE can decrypt them incrementally, and
// integrity-protected so that "the only way to mislead the access control
// rule evaluator is to tamper the input document, for example by
// substituting or modifying encrypted blocks" is detected (Section 2.1).
//
// Design choices:
//
//   - one seal, a synthetic-IV construction after RFC 5297 built from
//     AES-128-CTR and HMAC-SHA-256, for document blocks, rule-set blobs
//     and key wraps alike. Every sealed unit has a position (document,
//     version, block index; a blob is block 0 of "blob:"+namespace);
//   - the tag is HMAC-SHA-256(position || plaintext), truncated to
//     MACLen, and the CTR counter starts at tag || version || index.
//     Sealing one plaintext at a position twice gives the same bytes;
//     a different plaintext at the same position gets an unrelated
//     keystream. So a retried or raced re-publication, a rule set
//     re-sealed at its fixed position or a key wrap re-sealed under a
//     fixed key-encryption key leaks at most that the two plaintexts
//     are equal, never their XOR;
//   - the tag binds the position: substituting a block by another (from
//     the same or another document, or from a previous version) is
//     detected even when surrounding blocks are never read — the
//     property chained MACs lack, and the reason the paper's skips need
//     positional integrity (see docs/ARCHITECTURE.md). Random access,
//     which the skip index requires, and no padding overhead remain;
//   - opening decrypts, recomputes the tag over the plaintext and
//     compares; on a mismatch the destination is zeroed before
//     ErrIntegrity returns, so no unauthenticated plaintext reaches the
//     evaluator, even when a block is opened where it lies;
//   - an authenticated header binding the document geometry, which
//     defeats truncation;
//   - on amd64 with AES-NI (CPUID, checked once at start-up) the CTR
//     keystream comes from an assembly kernel with eight counter blocks
//     in flight and round keys expanded once per key; elsewhere, and
//     for a block's last partial 16 bytes, a portable loop over
//     crypto/aes gives the same bytes. Every seal and open shares it.
//
// Key sizes follow today's floor rather than the 2005 -era 3DES the
// e-gate card accelerated; the simulator's cost model, not the cipher
// identity, carries the performance fidelity.
package secure

import (
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

// ErrIntegrity reports tampered input.
var ErrIntegrity = fmt.Errorf("secure: integrity check failed")

// EncryptBlob seals a small standalone blob (a rule set, a wrapped key)
// as block 0 of BlobID(namespace) at version.
func EncryptBlob(key DocKey, namespace string, version uint32, plain []byte) ([]byte, error) {
	c, err := NewBlockContext(key)
	if err != nil {
		return nil, err
	}
	return c.EncryptBlock(BlobID(namespace), version, 0, plain)
}

// DecryptBlob opens an EncryptBlob result.
func DecryptBlob(key DocKey, namespace string, version uint32, sealed []byte) ([]byte, error) {
	c, err := NewBlockContext(key)
	if err != nil {
		return nil, err
	}
	plain := make([]byte, max(len(sealed)-MACLen, 0)) // a blob shorter than its tag fails the open
	if err := c.DecryptBlockInto(plain, BlobID(namespace), version, 0, sealed); err != nil {
		return nil, err
	}
	return plain, nil
}

// BlobID is the document id a blob of namespace is sealed under. A
// holder of the key's BlockContext opens a blob through it, as block 0
// of this id.
func BlobID(namespace string) string { return "blob:" + namespace }
