package secure

// The block seal and its amortized state. A fresh aes.NewCipher and
// hmac.New per block (two SHA-256 inits plus key processing, and five
// allocations) would sit on the hottest path of the system, the card
// side of the pull link. A BlockContext amortizes everything that
// depends only on the key: the AES cipher is built once (and, where the
// CPU has AES-NI, its round keys are expanded once more for the CTR
// kernel), and the HMAC ipad/opad SHA-256 states are absorbed once and
// restored per block through the hash's encoding.BinaryMarshaler
// state. Scratch space (hash clones, counter and keystream buffers, the
// MAC position prefix) holds nothing that depends on the key — the hash
// halves are restored from the pads on every use, the rest is
// overwritten — so it lives in one package-level sync.Pool that every
// context shares. A context is therefore safe for concurrent use (the
// prefetch pipeline decrypts run blocks from several goroutines against
// one shared context), and the hundreds of contexts a gateway holds
// (one per pooled card per document) share the few scratches the
// running goroutines need: a garbage collection empties one pool, not
// one per context.
//
// The keystream is AES-128-CTR. On amd64, when CPUID reports AES-NI,
// an assembly kernel (ctr_amd64.s) encrypts eight counter blocks at a
// time from the context's round keys and XORs them in, with no call
// per 16 bytes; a stream from cipher.NewCTR would do the same but costs
// an allocation per block. Everywhere else, and for the tail under one
// counter block, ctrXOR's portable loop calls the cipher.Block.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"math/bits"
	"sync"
	"sync/atomic"
)

// BlockContext is the reusable per-DocKey cipher state. It is immutable
// after construction and safe for concurrent use.
type BlockContext struct {
	key   DocKey
	block cipher.Block
	// rk holds the expanded round keys of the CTR kernel, where there is
	// one.
	rk [roundKeyBytes]byte

	// ipad / opad are the marshaled SHA-256 states after absorbing the
	// MAC key XOR 0x36 / 0x5c pads — the two halves of HMAC-SHA-256,
	// precomputed once and restored per block.
	ipad, opad []byte
}

// blockScratch is the per-goroutine working state of one block
// operation; pooling it makes the steady-state path allocation-free.
type blockScratch struct {
	inner, outer hash.Hash // HMAC halves, restored from a context's ipad/opad
	pre          []byte    // MAC position prefix, reused
	sum          [sha256.Size]byte
	ctr, ks      [aes.BlockSize]byte
}

// scratchPool holds the blockScratch of every context. scratchRefills
// counts the scratches it has had to build.
var (
	scratchPool = sync.Pool{New: func() any {
		scratchRefills.Add(1)
		return &blockScratch{inner: sha256.New(), outer: sha256.New()}
	}}
	scratchRefills atomic.Int64
)

// roundKeyBytes is the size of an expanded AES-128 key: eleven round
// keys.
const roundKeyBytes = 11 * aes.BlockSize

// expandKey and xorKeystream are the platform's AES-CTR kernel, set at
// start-up where the CPU has one (ctr_amd64.go) and nil elsewhere.
var (
	expandKey    func(key *[16]byte, rk *[roundKeyBytes]byte)
	xorKeystream func(rk *[roundKeyBytes]byte, hi, lo uint64, dst, src []byte)
)

// NewBlockContext builds the reusable cipher state for one key.
func NewBlockContext(key DocKey) (*BlockContext, error) {
	b, err := aes.NewCipher(key.Enc[:])
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	var pad [sha256.BlockSize]byte
	for i := range pad {
		pad[i] = 0x36
	}
	for i, kb := range key.Mac {
		pad[i] ^= kb
	}
	inner := sha256.New()
	inner.Write(pad[:])
	ipad, err := inner.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("secure: marshaling hmac state: %w", err)
	}
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	outer := sha256.New()
	outer.Write(pad[:])
	opad, err := outer.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("secure: marshaling hmac state: %w", err)
	}
	c := &BlockContext{key: key, block: b, ipad: ipad, opad: opad}
	if expandKey != nil {
		expandKey(&c.key.Enc, &c.rk)
	}
	return c, nil
}

// Key returns the key this context was built for.
func (c *BlockContext) Key() DocKey { return c.key }

// restore rewinds a pooled hash to a precomputed state. The states were
// produced by the same implementation's MarshalBinary, so a failure is
// a programming error, not an input condition.
func restore(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("secure: restoring hmac state: %v", err))
	}
}

// macPrefix assembles the position into s.pre: "blk" || version ||
// blockIdx || len(docID) || docID. One buffered Write instead of four
// keeps the hot path free of byte-slice conversions.
func (s *blockScratch) macPrefix(docID string, version, blockIdx uint32) {
	s.pre = append(s.pre[:0], 'b', 'l', 'k')
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], version)
	binary.BigEndian.PutUint32(n[4:], blockIdx)
	s.pre = append(s.pre, n[:]...)
	binary.BigEndian.PutUint32(n[:4], uint32(len(docID)))
	s.pre = append(s.pre, n[:4]...)
	s.pre = append(s.pre, docID...)
}

// tag computes a block's synthetic IV, HMAC-SHA-256(position ||
// plaintext) truncated to MACLen, from the precomputed pad states.
func (c *BlockContext) tag(s *blockScratch, docID string, version, blockIdx uint32, plain []byte) [MACLen]byte {
	restore(s.inner, c.ipad)
	s.macPrefix(docID, version, blockIdx)
	s.inner.Write(s.pre)
	s.inner.Write(plain)
	innerSum := s.inner.Sum(s.sum[:0])
	restore(s.outer, c.opad)
	s.outer.Write(innerSum)
	full := s.outer.Sum(s.sum[:0])
	var out [MACLen]byte
	copy(out[:], full)
	return out
}

// HeaderMAC authenticates a container header: HMAC-SHA-256 over "hdr"
// || headerBytes, truncated to HeaderMACLen, from the precomputed pad
// states. The preimage is assembled in the pooled scratch, so
// headerBytes is only read during the call and a caller may build it on
// its stack.
func (c *BlockContext) HeaderMAC(headerBytes []byte) [HeaderMACLen]byte {
	s := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(s)
	restore(s.inner, c.ipad)
	s.pre = append(append(s.pre[:0], "hdr"...), headerBytes...)
	s.inner.Write(s.pre)
	innerSum := s.inner.Sum(s.sum[:0])
	restore(s.outer, c.opad)
	s.outer.Write(innerSum)
	var out [HeaderMACLen]byte
	copy(out[:], s.outer.Sum(s.sum[:0]))
	return out
}

// ctrXOR applies the AES-CTR keystream of a block to src, writing into
// dst (dst may alias src — the in-place path). The initial counter is
// tag || version || blockIdx: the synthetic IV, with the block's
// generation and index in the low half so that two blocks share a
// keystream only where their tags collide at one (version, index). The
// counter is one 128-bit big-endian integer: a carry out of the low
// half goes into the tag half. Equivalent to cipher.NewCTR(block,
// iv).XORKeyStream but without the per-call stream allocation. The
// platform's kernel, where there is one, takes every whole counter
// block; the portable loop takes what is left.
func (c *BlockContext) ctrXOR(s *blockScratch, tag *[MACLen]byte, version, blockIdx uint32, dst, src []byte) {
	hi := binary.BigEndian.Uint64(tag[:])
	lo := uint64(version)<<32 | uint64(blockIdx)
	if whole := len(src) &^ (aes.BlockSize - 1); whole > 0 && xorKeystream != nil {
		xorKeystream(&c.rk, hi, lo, dst[:whole], src[:whole])
		var carry uint64
		lo, carry = bits.Add64(lo, uint64(whole/aes.BlockSize), 0)
		hi += carry
		dst, src = dst[whole:], src[whole:]
	}
	binary.BigEndian.PutUint64(s.ctr[:8], hi)
	binary.BigEndian.PutUint64(s.ctr[8:], lo)
	for len(src) > 0 {
		c.block.Encrypt(s.ks[:], s.ctr[:])
		n := len(src)
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		if n == aes.BlockSize {
			// Word-wise XOR of a full keystream block.
			binary.LittleEndian.PutUint64(dst[:8],
				binary.LittleEndian.Uint64(src[:8])^binary.LittleEndian.Uint64(s.ks[:8]))
			binary.LittleEndian.PutUint64(dst[8:16],
				binary.LittleEndian.Uint64(src[8:16])^binary.LittleEndian.Uint64(s.ks[8:16]))
		} else {
			for i := 0; i < n; i++ {
				dst[i] = src[i] ^ s.ks[i]
			}
		}
		src = src[n:]
		dst = dst[n:]
		for i := aes.BlockSize - 1; i >= 0; i-- {
			s.ctr[i]++
			if s.ctr[i] != 0 {
				break
			}
		}
	}
}

// EncryptBlock seals one plaintext block at its position (docID,
// version, blockIdx): ciphertext || tag, len(plain)+MACLen bytes. The
// tag is computed over the plaintext first and the keystream is derived
// from it, so sealing the same plaintext at a position twice gives the
// same bytes, and a different plaintext an unrelated keystream.
func (c *BlockContext) EncryptBlock(docID string, version, blockIdx uint32, plain []byte) ([]byte, error) {
	s := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(s)
	out := make([]byte, len(plain)+MACLen)
	tag := c.tag(s, docID, version, blockIdx, plain)
	copy(out[len(plain):], tag[:])
	c.ctrXOR(s, &tag, version, blockIdx, out[:len(plain)], plain)
	return out, nil
}

// DecryptBlockInto opens a stored block into dst, which must be exactly
// len(stored)-MACLen bytes and either disjoint from stored or its very
// ciphertext prefix (the in-place path, only for callers that own the
// stored bytes: blocks from in-process stores and caches are shared
// store memory, a client's pooled BlockFrame is the caller's until
// Release). It decrypts, recomputes the tag over the plaintext and
// compares. A mismatch (tampering, substitution, replay of another
// position or version) returns ErrIntegrity with dst zeroed, so no
// unauthenticated plaintext outlives the call.
func (c *BlockContext) DecryptBlockInto(dst []byte, docID string, version, blockIdx uint32, stored []byte) error {
	if len(stored) < MACLen {
		return fmt.Errorf("%w: block %d shorter than its tag", ErrIntegrity, blockIdx)
	}
	ct := stored[:len(stored)-MACLen]
	if len(dst) != len(ct) {
		return fmt.Errorf("secure: block %d destination is %d bytes, ciphertext is %d", blockIdx, len(dst), len(ct))
	}
	var got [MACLen]byte
	copy(got[:], stored[len(ct):])
	s := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(s)
	c.ctrXOR(s, &got, version, blockIdx, dst, ct)
	if want := c.tag(s, docID, version, blockIdx, dst); !hmac.Equal(want[:], got[:]) {
		clear(dst)
		return fmt.Errorf("%w: block %d tag mismatch", ErrIntegrity, blockIdx)
	}
	return nil
}

// DecryptBlocks verifies and decrypts a contiguous run of stored blocks
// (indices start, start+1, ...) into one contiguous buffer grown from
// dst (pass a pooled buffer — GetRunBuffer — or nil). versions holds
// the per-block generation: either one entry per block or a single
// entry shared by the whole run. It returns one plaintext view per
// block, all aliasing the returned buffer, and fails on the first bad
// block with its index in the error (the partial-run contract: nothing
// is reported decrypted past a failure).
func (c *BlockContext) DecryptBlocks(dst []byte, docID string, start uint32, versions []uint32, blocks [][]byte) ([][]byte, []byte, error) {
	if len(versions) != 1 && len(versions) != len(blocks) {
		return nil, dst, fmt.Errorf("secure: %d versions for %d blocks", len(versions), len(blocks))
	}
	total := 0
	for i, b := range blocks {
		if len(b) < MACLen {
			return nil, dst, fmt.Errorf("%w: block %d shorter than its tag", ErrIntegrity, start+uint32(i))
		}
		total += len(b) - MACLen
	}
	buf := dst[:0]
	if cap(buf) < total {
		buf = make([]byte, 0, total)
	}
	buf = buf[:total]
	plains := make([][]byte, len(blocks))
	at := 0
	for i, b := range blocks {
		v := versions[0]
		if len(versions) > 1 {
			v = versions[i]
		}
		n := len(b) - MACLen
		seg := buf[at : at+n : at+n]
		if err := c.DecryptBlockInto(seg, docID, v, start+uint32(i), b); err != nil {
			return nil, buf, err
		}
		plains[i] = seg
		at += n
	}
	return plains, buf, nil
}

// maxPooledRunBuf bounds the capacity a released run buffer may retain,
// mirroring the client frame pool's cap.
const maxPooledRunBuf = 1 << 20

// runBufPool recycles the contiguous plaintext buffers of DecryptBlocks
// across runs.
var runBufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetRunBuffer returns a pooled buffer for DecryptBlocks' dst.
func GetRunBuffer() []byte { return *runBufPool.Get().(*[]byte) }

// PutRunBuffer returns a DecryptBlocks buffer to the pool. The caller
// must be done with every plaintext view into it.
func PutRunBuffer(b []byte) {
	if cap(b) > maxPooledRunBuf {
		return
	}
	b = b[:0]
	runBufPool.Put(&b)
}
