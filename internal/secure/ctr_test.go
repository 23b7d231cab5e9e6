package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// withoutKernel makes ctrXOR take its portable loop for every byte
// until the test ends.
func withoutKernel(tb testing.TB) {
	saved := xorKeystream
	xorKeystream = nil
	tb.Cleanup(func() { xorKeystream = saved })
}

// ctrReference is the keystream from cipher.NewCTR at the block's
// initial counter tag || version || blockIdx.
func ctrReference(tb testing.TB, key DocKey, tag uint64, version, blockIdx uint32, src []byte) []byte {
	tb.Helper()
	b, err := aes.NewCipher(key.Enc[:])
	if err != nil {
		tb.Fatal(err)
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], tag)
	binary.BigEndian.PutUint32(iv[8:], version)
	binary.BigEndian.PutUint32(iv[12:], blockIdx)
	out := make([]byte, len(src))
	cipher.NewCTR(b, iv[:]).XORKeyStream(out, src)
	return out
}

// keystreamPaths applies ctrXOR to src with the kernel (where the CPU
// has one) and with the portable loop alone, each into a disjoint
// buffer and in place, and reports the first that differs from want.
func keystreamPaths(tb testing.TB, ctx *BlockContext, tag uint64, version, blockIdx uint32, src, want []byte) error {
	tb.Helper()
	var t [MACLen]byte
	binary.BigEndian.PutUint64(t[:], tag)
	s := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(s)
	saved := xorKeystream
	defer func() { xorKeystream = saved }()
	paths := map[string]func(rk *[roundKeyBytes]byte, hi, lo uint64, dst, src []byte){"portable loop": nil}
	if saved != nil {
		paths["kernel"] = saved
	}
	for name, kernel := range paths {
		xorKeystream = kernel
		disjoint := make([]byte, len(src))
		ctx.ctrXOR(s, &t, version, blockIdx, disjoint, src)
		inPlace := append([]byte(nil), src...)
		ctx.ctrXOR(s, &t, version, blockIdx, inPlace, inPlace)
		if !bytes.Equal(disjoint, want) {
			return fmt.Errorf("%s into a disjoint buffer differs from cipher.NewCTR", name)
		}
		if !bytes.Equal(inPlace, want) {
			return fmt.Errorf("%s in place differs from cipher.NewCTR", name)
		}
	}
	return nil
}

// TestKeystreamMatchesCTR: the kernel and the portable loop give
// cipher.NewCTR's keystream at every length up to 4 KiB, into a
// disjoint buffer and in place, for counters whose low half carries
// into the tag half (and whose tag half wraps).
func TestKeystreamMatchesCTR(t *testing.T) {
	if xorKeystream == nil {
		t.Log("no keystream kernel on this CPU: comparing the portable loop alone")
	}
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 4096)
	rng.Read(src)
	positions := []struct {
		tag            uint64
		version, index uint32
	}{
		{0x0123456789abcdef, 3, 7},
		{0x0123456789abcdef, 0xFFFFFFFF, 0xFFFFFFF0},
		{0x0123456789abcdef, 0xFFFFFFFF, 0xFFFFFFFF},
		{0xFFFFFFFFFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFA},
	}
	for k := 0; k < 3; k++ {
		var key DocKey
		rng.Read(key.Enc[:])
		ctx, err := NewBlockContext(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range positions {
			want := ctrReference(t, key, p.tag, p.version, p.index, src)
			for n := 0; n <= len(src); n++ {
				if err := keystreamPaths(t, ctx, p.tag, p.version, p.index, src[:n], want[:n]); err != nil {
					t.Fatalf("key %d, counter %016x:%08x:%08x, %d bytes: %v", k, p.tag, p.version, p.index, n, err)
				}
			}
		}
	}
}

// BenchmarkOpenBlock is one block's open (keystream and tag check) at
// the sizes the stores hold, with the keystream kernel and with the
// portable loop.
func BenchmarkOpenBlock(b *testing.B) {
	ctx, err := NewBlockContext(KeyFromSeed("bench-open"))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{128, 256, 4096} {
		stored, err := ctx.EncryptBlock("doc", 1, 0, bytes.Repeat([]byte{'x'}, size))
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]byte, size)
		for _, path := range []string{"kernel", "loop"} {
			b.Run(fmt.Sprintf("%d/%s", size, path), func(b *testing.B) {
				if path == "loop" {
					withoutKernel(b)
				} else if xorKeystream == nil {
					b.Skip("no keystream kernel on this CPU")
				}
				b.SetBytes(int64(size))
				for b.Loop() {
					if err := ctx.DecryptBlockInto(dst, "doc", 1, 0, stored); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
