package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/race"
)

// oracleEncrypt is an independent reimplementation of the stored-block
// format straight from crypto/hmac and cipher.NewCTR — the synthetic-IV
// reference the amortized BlockContext is differentially tested
// against. It is deliberately NOT the production code path.
func oracleEncrypt(t *testing.T, key DocKey, docID string, version, blockIdx uint32, plain []byte) []byte {
	t.Helper()
	c, err := aes.NewCipher(key.Enc[:])
	if err != nil {
		t.Fatal(err)
	}
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], version)
	binary.BigEndian.PutUint32(n[4:], blockIdx)
	mac := hmac.New(sha256.New, key.Mac[:])
	mac.Write([]byte("blk"))
	mac.Write(n[:])
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(docID)))
	mac.Write(l[:])
	mac.Write([]byte(docID))
	mac.Write(plain)
	tag := mac.Sum(nil)[:MACLen]
	iv := append(append([]byte(nil), tag...), n[:]...)
	out := make([]byte, len(plain)+MACLen)
	cipher.NewCTR(c, iv).XORKeyStream(out[:len(plain)], plain)
	copy(out[len(plain):], tag)
	return out
}

// TestContextMatchesOracle: every context path (encrypt, decrypt into a
// separate buffer, in place, batched run) agrees byte for byte with the
// independent crypto/hmac + cipher.NewCTR construction across sizes and
// positions.
func TestContextMatchesOracle(t *testing.T) {
	key := KeyFromSeed("ctx-oracle")
	ctx, err := NewBlockContext(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 15, 16, 17, 255, 256, 1024} {
		for _, pos := range []uint32{0, 1, 7, 1 << 20} {
			plain := bytes.Repeat([]byte{byte(size), byte(pos)}, (size+1)/2)[:size]
			want := oracleEncrypt(t, key, "doc", 3, pos, plain)
			got, err := ctx.EncryptBlock("doc", 3, pos, plain)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size=%d pos=%d: context ciphertext diverges from oracle", size, pos)
			}
			dst := make([]byte, size)
			if err := ctx.DecryptBlockInto(dst, "doc", 3, pos, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, plain) {
				t.Fatalf("size=%d pos=%d: DecryptBlockInto diverges", size, pos)
			}
			owned := append([]byte(nil), want...)
			if err := ctx.DecryptBlockInto(owned[:size], "doc", 3, pos, owned); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(owned[:size], plain) {
				t.Fatalf("size=%d pos=%d: in-place decrypt diverges", size, pos)
			}
			plains, buf, err := ctx.DecryptBlocks(nil, "doc", pos, []uint32{3}, [][]byte{want})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plains[0], plain) {
				t.Fatalf("size=%d pos=%d: batched decrypt diverges", size, pos)
			}
			PutRunBuffer(buf)
		}
	}
}

// TestDecryptBlocksRun: a batched run decrypts into one contiguous
// buffer, in order, with per-block generations honored.
func TestDecryptBlocksRun(t *testing.T) {
	key := KeyFromSeed("ctx-run")
	ctx, err := NewBlockContext(key)
	if err != nil {
		t.Fatal(err)
	}
	const start = 5
	versions := []uint32{1, 1, 2, 3}
	var blocks [][]byte
	var wantPlain [][]byte
	for i, v := range versions {
		plain := bytes.Repeat([]byte{byte('a' + i)}, 40+i)
		stored, err := ctx.EncryptBlock("doc", v, start+uint32(i), plain)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, stored)
		wantPlain = append(wantPlain, plain)
	}
	plains, buf, err := ctx.DecryptBlocks(GetRunBuffer(), "doc", start, versions, blocks)
	if err != nil {
		t.Fatal(err)
	}
	defer PutRunBuffer(buf)
	if len(plains) != len(blocks) {
		t.Fatalf("got %d plaintexts for %d blocks", len(plains), len(blocks))
	}
	at := 0
	for i, p := range plains {
		if !bytes.Equal(p, wantPlain[i]) {
			t.Fatalf("block %d plaintext diverges", i)
		}
		if &p[0] != &buf[at] {
			t.Fatalf("block %d does not alias the contiguous buffer at offset %d", i, at)
		}
		at += len(p)
	}

	// Single shared version variant.
	uniform := make([][]byte, 3)
	for i := range uniform {
		plain := []byte(strings.Repeat("x", 10+i))
		uniform[i], _ = ctx.EncryptBlock("doc", 9, uint32(i), plain)
	}
	if _, buf2, err := ctx.DecryptBlocks(nil, "doc", 0, []uint32{9}, uniform); err != nil {
		t.Fatalf("shared-version run: %v", err)
	} else {
		PutRunBuffer(buf2)
	}
}

// TestDecryptBlocksPartialRunError: a tampered block fails the run with
// its absolute index, and blocks past the failure are never reported.
func TestDecryptBlocksPartialRunError(t *testing.T) {
	key := KeyFromSeed("ctx-partial")
	ctx, _ := NewBlockContext(key)
	var blocks [][]byte
	for i := 0; i < 4; i++ {
		stored, _ := ctx.EncryptBlock("doc", 1, uint32(10+i), bytes.Repeat([]byte{7}, 32))
		blocks = append(blocks, stored)
	}
	blocks[2][0] ^= 1 // tamper block index 12
	plains, _, err := ctx.DecryptBlocks(nil, "doc", 10, []uint32{1}, blocks)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered run: err=%v, want ErrIntegrity", err)
	}
	if !strings.Contains(err.Error(), "block 12") {
		t.Fatalf("error does not name the failing absolute index: %v", err)
	}
	if plains != nil {
		t.Fatal("a failed run must not hand out plaintexts")
	}
	// Truncated block (shorter than its tag) is detected before any work.
	short := [][]byte{blocks[0], {1, 2, 3}}
	if _, _, err := ctx.DecryptBlocks(nil, "doc", 10, []uint32{1}, short); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("truncated run: err=%v, want ErrIntegrity", err)
	}
}

// TestContextTamperPerBlock mirrors TestBlockTamperDetected on the
// context path: every flipped bit of a stored block is caught, into a
// separate buffer and in place, and either way the destination is left
// all zero.
func TestContextTamperPerBlock(t *testing.T) {
	key := KeyFromSeed("ctx-tamper")
	ctx, _ := NewBlockContext(key)
	stored, _ := ctx.EncryptBlock("doc", 1, 7, []byte("payload data here"))
	n := len(stored) - MACLen
	for i := range stored {
		mutated := append([]byte(nil), stored...)
		mutated[i] ^= 0x01
		dst := bytes.Repeat([]byte{0xee}, n)
		if err := ctx.DecryptBlockInto(dst, "doc", 1, 7, mutated); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flipping byte %d went undetected", i)
		}
		if !bytes.Equal(dst, make([]byte, n)) {
			t.Fatalf("flipping byte %d: the refused open left %x in its destination", i, dst)
		}
		tag := append([]byte(nil), mutated[n:]...)
		if err := ctx.DecryptBlockInto(mutated[:n], "doc", 1, 7, mutated); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("in-place: flipping byte %d went undetected", i)
		}
		if !bytes.Equal(mutated[:n], make([]byte, n)) || !bytes.Equal(mutated[n:], tag) {
			t.Fatalf("in-place: flipping byte %d left %x (tag %x, was %x)", i, mutated[:n], mutated[n:], tag)
		}
	}
}

// TestContextConcurrentUse hammers one shared context from many
// goroutines (the prefetch pipeline's shape) under -race.
func TestContextConcurrentUse(t *testing.T) {
	key := KeyFromSeed("ctx-conc")
	ctx, _ := NewBlockContext(key)
	const blocks = 64
	stored := make([][]byte, blocks)
	for i := range stored {
		stored[i], _ = ctx.EncryptBlock("doc", 2, uint32(i), bytes.Repeat([]byte{byte(i)}, 128))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := make([]byte, 128)
			for pass := 0; pass < 20; pass++ {
				i := (w*13 + pass*7) % blocks
				if err := ctx.DecryptBlockInto(p, "doc", 2, uint32(i), stored[i]); err != nil {
					errs <- err
					return
				}
				if p[0] != byte(i) || p[127] != byte(i) {
					errs <- fmt.Errorf("block %d: wrong plaintext", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestDecryptAllocsFlatAcrossRunLengths is the acceptance gate behind
// the decrypt_allocs_per_block metric: the amortized per-block toll of
// the batched path must not grow with the run length (the whole point
// of cloning HMAC state instead of re-keying).
func TestDecryptAllocsFlatAcrossRunLengths(t *testing.T) {
	key := KeyFromSeed("ctx-allocs")
	ctx, _ := NewBlockContext(key)
	perBlock := func(run int) float64 {
		stored := make([][]byte, run)
		for i := range stored {
			stored[i], _ = ctx.EncryptBlock("doc", 1, uint32(i), bytes.Repeat([]byte{9}, 256))
		}
		buf := GetRunBuffer()
		defer func() { PutRunBuffer(buf) }()
		// Warm the scratch pool.
		for i := 0; i < 4; i++ {
			_, b, err := ctx.DecryptBlocks(buf, "doc", 0, []uint32{1}, stored)
			if err != nil {
				t.Fatal(err)
			}
			buf = b
		}
		allocs := testing.AllocsPerRun(50, func() {
			_, b, err := ctx.DecryptBlocks(buf, "doc", 0, []uint32{1}, stored)
			if err != nil {
				t.Fatal(err)
			}
			buf = b
		})
		return allocs / float64(run)
	}
	small, large := perBlock(4), perBlock(32)
	if race.Enabled {
		t.Logf("race detector on: allocation counts not asserted (run=4 %.2f, run=32 %.2f per block)", small, large)
		return
	}
	// One allocation per run (the [][]byte header) is expected; per
	// block it must shrink, not grow, as runs lengthen.
	if large > small+0.5 {
		t.Fatalf("allocs per block grew with run length: run=4 %.2f, run=32 %.2f", small, large)
	}
	if large > 1.0 {
		t.Fatalf("batched decrypt allocates %.2f per block; the amortized path should stay below 1", large)
	}
}

// TestOpenAllocsAcrossContexts: a gateway holds hundreds of contexts
// (one per pooled card per document) and uses each one rarely, so a
// collection runs between two uses of most of them. Opening a block
// must still allocate nothing once the first round has warmed the
// shared scratch: a pool per context would be emptied by every
// collection and refill itself at the next use of each context.
func TestOpenAllocsAcrossContexts(t *testing.T) {
	const contexts = 1000
	ctxs := make([]*BlockContext, contexts)
	stored := make([][]byte, contexts)
	for i := range ctxs {
		ctxs[i], _ = NewBlockContext(KeyFromSeed(fmt.Sprintf("ctx-%d", i)))
		stored[i], _ = ctxs[i].EncryptBlock("doc", 1, 0, bytes.Repeat([]byte{byte(i)}, 256))
	}
	dst := make([]byte, 256)
	var before, after runtime.MemStats
	for round := 0; round < 4; round++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, c := range ctxs {
			if err := c.DecryptBlockInto(dst, "doc", 1, 0, stored[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perOpen := float64(after.Mallocs-before.Mallocs) / contexts
		if round == 0 || race.Enabled {
			t.Logf("round %d: %.3f allocations per open", round, perOpen)
			continue
		}
		// A collection may cost the shared pool one refill, 1/contexts
		// per open; a pool per context costs at least one per open.
		if perOpen >= 0.01 {
			t.Fatalf("round %d after a collection: %.3f allocations per open, want 0", round, perOpen)
		}
	}
}

// TestBlobContextRoundTrip: a blob is block 0 of BlobID(namespace), so
// the key's context opens what EncryptBlob seals and DecryptBlob opens
// what the context seals there — the card opens rule sets through the
// document's context this way.
func TestBlobContextRoundTrip(t *testing.T) {
	key := KeyFromSeed("ctx-blob")
	ctx, _ := NewBlockContext(key)
	ns := "rules:doc|alice"
	sealed, err := ctx.EncryptBlock(BlobID(ns), 3, 0, []byte("rule data"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecryptBlob(key, ns, 3, sealed)
	if err != nil || string(back) != "rule data" {
		t.Fatalf("DecryptBlob of a context seal: %q, %v", back, err)
	}
	sealed2, err := EncryptBlob(key, ns, 3, []byte("rule data"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed, sealed2) {
		t.Fatal("EncryptBlob and the context's seal at BlobID differ")
	}
	back2 := make([]byte, len(sealed2)-MACLen)
	if err := ctx.DecryptBlockInto(back2, BlobID(ns), 3, 0, sealed2); err != nil || string(back2) != "rule data" {
		t.Fatalf("context open of EncryptBlob: %q, %v", back2, err)
	}
	if err := ctx.DecryptBlockInto(back2, BlobID("rules:doc|bob"), 3, 0, sealed); !errors.Is(err, ErrIntegrity) {
		t.Error("cross-namespace blob accepted")
	}
}

// TestDecryptBlockIntoSizeMismatch: a wrong-size destination is refused
// before any verification work.
func TestDecryptBlockIntoSizeMismatch(t *testing.T) {
	key := KeyFromSeed("ctx-size")
	ctx, _ := NewBlockContext(key)
	stored, _ := ctx.EncryptBlock("doc", 1, 0, []byte("0123456789"))
	if err := ctx.DecryptBlockInto(make([]byte, 9), "doc", 1, 0, stored); err == nil {
		t.Fatal("short destination accepted")
	}
	if err := ctx.DecryptBlockInto(make([]byte, 11), "doc", 1, 0, stored); err == nil {
		t.Fatal("long destination accepted")
	}
}

// TestHeaderMACContextMatchesPackage: a context's header MAC is, bit for
// bit, crypto/hmac's HMAC-SHA-256 over "hdr" || header, for random keys
// and headers of every length around the SHA-256 block size — reusing
// one context (and its pooled scratch) across calls included.
func TestHeaderMACContextMatchesPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 50; k++ {
		var key DocKey
		rng.Read(key.Enc[:])
		rng.Read(key.Mac[:])
		ctx, err := NewBlockContext(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 128, 200 + rng.Intn(300)} {
			hdr := make([]byte, n)
			rng.Read(hdr)
			mac := hmac.New(sha256.New, key.Mac[:])
			mac.Write([]byte("hdr"))
			mac.Write(hdr)
			var want [HeaderMACLen]byte
			copy(want[:], mac.Sum(nil))
			if got := ctx.HeaderMAC(hdr); got != want {
				t.Fatalf("key %d, %d-byte header: context MAC %x, crypto/hmac %x", k, n, got, want)
			}
		}
	}
}

// sharedKeystream reports whether two ciphertexts of one position leak
// the XOR of their plaintexts: XOR(ct) = XOR(pt) over their common
// length, which is what one keystream used twice gives.
func sharedKeystream(ctA, ctB, ptA, ptB []byte) bool {
	n := min(len(ctA), len(ctB), len(ptA), len(ptB))
	for i := 0; i < n; i++ {
		if ctA[i]^ctB[i] != ptA[i]^ptB[i] {
			return false
		}
	}
	return true
}

// TestSealUnderPositionReuse: one position sealed twice. The same
// plaintext gives the same bytes; a different one gets an unrelated
// keystream, so the store does not learn the plaintexts' XOR; and a
// tampered block opened where it lies leaves nothing but zeros.
func TestSealUnderPositionReuse(t *testing.T) {
	ctx, _ := NewBlockContext(KeyFromSeed("reuse"))
	a := []byte("grant alice read on /folder/patient[1]/visit")
	b := []byte("grant alice read on /folder/patient[2]/visit")
	sa, _ := ctx.EncryptBlock("doc", 4, 2, a)
	again, _ := ctx.EncryptBlock("doc", 4, 2, a)
	if !bytes.Equal(sa, again) {
		t.Fatal("one plaintext sealed twice at one position gives two different blocks")
	}
	sb, _ := ctx.EncryptBlock("doc", 4, 2, b)
	if sharedKeystream(sa[:len(a)], sb[:len(b)], a, b) {
		t.Fatal("two plaintexts sealed at one position share a keystream: XOR(ct) = XOR(pt)")
	}
	sb[3] ^= 0x40
	if err := ctx.DecryptBlockInto(sb[:len(b)], "doc", 4, 2, sb); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered block opened in place: %v", err)
	}
	if !bytes.Equal(sb[:len(b)], make([]byte, len(b))) {
		t.Fatalf("a refused in-place open left %q where the block lay", sb[:len(b)])
	}
}
