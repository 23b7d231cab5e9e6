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
	"strings"
	"sync"
	"testing"

	"repro/internal/race"
)

// oracleEncrypt is an independent reimplementation of the stored-block
// format straight from crypto/hmac and cipher.NewCTR — the reference
// the amortized BlockContext is differentially tested against. It is
// deliberately NOT the production code path.
func oracleEncrypt(t *testing.T, key DocKey, docID string, version, blockIdx uint32, plain []byte) []byte {
	t.Helper()
	c, err := aes.NewCipher(key.Enc[:])
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte("sds-iv"))
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], version)
	binary.BigEndian.PutUint32(n[4:], blockIdx)
	h.Write(n[:])
	h.Write([]byte(docID))
	iv := h.Sum(nil)[:aes.BlockSize]
	out := make([]byte, len(plain)+MACLen)
	cipher.NewCTR(c, iv).XORKeyStream(out[:len(plain)], plain)
	mac := hmac.New(sha256.New, key.Mac[:])
	mac.Write([]byte("blk"))
	mac.Write(n[:])
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(docID)))
	mac.Write(l[:])
	mac.Write([]byte(docID))
	mac.Write(out[:len(plain)])
	copy(out[len(plain):], mac.Sum(nil)[:MACLen])
	return out
}

// TestContextMatchesOracle: every context path (encrypt, decrypt, into,
// in-place, batched run) agrees byte for byte with the independent
// crypto/hmac + cipher.NewCTR construction across sizes and positions.
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
			back, err := ctx.DecryptBlock("doc", 3, pos, want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, plain) {
				t.Fatalf("size=%d pos=%d: decrypt diverges", size, pos)
			}
			dst := make([]byte, size)
			if err := ctx.DecryptBlockInto(dst, "doc", 3, pos, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, plain) {
				t.Fatalf("size=%d pos=%d: DecryptBlockInto diverges", size, pos)
			}
			owned := append([]byte(nil), want...)
			inPlace, err := ctx.DecryptBlockInPlace("doc", 3, pos, owned)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inPlace, plain) {
				t.Fatalf("size=%d pos=%d: in-place decrypt diverges", size, pos)
			}
			if size > 0 && &inPlace[0] != &owned[0] {
				t.Fatal("in-place plaintext is not a view into the stored block")
			}
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
// context path: every flipped bit of a stored block is caught.
func TestContextTamperPerBlock(t *testing.T) {
	key := KeyFromSeed("ctx-tamper")
	ctx, _ := NewBlockContext(key)
	stored, _ := ctx.EncryptBlock("doc", 1, 7, []byte("payload data here"))
	for i := range stored {
		mutated := append([]byte(nil), stored...)
		mutated[i] ^= 0x01
		if _, err := ctx.DecryptBlock("doc", 1, 7, mutated); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flipping byte %d went undetected", i)
		}
		// In-place must also refuse — and must not have touched the bytes.
		before := append([]byte(nil), mutated...)
		if _, err := ctx.DecryptBlockInPlace("doc", 1, 7, mutated); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("in-place: flipping byte %d went undetected", i)
		}
		if !bytes.Equal(before, mutated) {
			t.Fatalf("in-place decrypt of a tampered block %d modified the input", i)
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
			for pass := 0; pass < 20; pass++ {
				i := (w*13 + pass*7) % blocks
				p, err := ctx.DecryptBlock("doc", 2, uint32(i), stored[i])
				if err != nil {
					errs <- err
					return
				}
				if len(p) != 128 || p[0] != byte(i) {
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

// TestBlobContextRoundTrip: the blob framing works through a context
// (namespace is a per-call parameter, so one context serves a key's
// documents and blobs alike).
func TestBlobContextRoundTrip(t *testing.T) {
	key := KeyFromSeed("ctx-blob")
	ctx, _ := NewBlockContext(key)
	sealed, err := ctx.EncryptBlob("rules:doc|alice", 3, []byte("rule data"))
	if err != nil {
		t.Fatal(err)
	}
	// Interoperates with the package-level path in both directions.
	back, err := DecryptBlob(key, "rules:doc|alice", 3, sealed)
	if err != nil || string(back) != "rule data" {
		t.Fatalf("package-level open of context seal: %q, %v", back, err)
	}
	sealed2, err := EncryptBlob(key, "rules:doc|alice", 3, []byte("rule data"))
	if err != nil {
		t.Fatal(err)
	}
	back2, err := ctx.DecryptBlob("rules:doc|alice", 3, sealed2)
	if err != nil || string(back2) != "rule data" {
		t.Fatalf("context open of package-level seal: %q, %v", back2, err)
	}
	if _, err := ctx.DecryptBlob("rules:doc|bob", 3, sealed); !errors.Is(err, ErrIntegrity) {
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
// bit, the package-level one, for random keys and headers of every
// length around the SHA-256 block size — reusing one context (and its
// pooled scratch) across keys' calls included.
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
			if got, want := ctx.HeaderMAC(hdr), HeaderMAC(key, hdr); got != want {
				t.Fatalf("key %d, %d-byte header: context MAC %x, package MAC %x", k, n, got, want)
			}
		}
	}
}
