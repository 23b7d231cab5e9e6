package secure

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecryptBlock drives the block opener with arbitrary stored bytes
// and positions, into a separate buffer and in place. Properties
// checked: no panic on any input; the only error is ErrIntegrity, and
// it leaves the destination all zero; an accepted block is the
// canonical seal of its plaintext at that position (so a genuine
// EncryptBlock output round-trips and nothing else opens); both paths
// agree.
func FuzzDecryptBlock(f *testing.F) {
	ctx, err := NewBlockContext(KeyFromSeed("fuzz-block"))
	if err != nil {
		f.Fatal(err)
	}
	seedPlain := []byte("fuzz seed plaintext 0123456789")
	seedStored, err := ctx.EncryptBlock("doc", 1, 0, seedPlain)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedStored, "doc", uint32(1), uint32(0))
	f.Add(seedStored[:len(seedStored)-1], "doc", uint32(1), uint32(0)) // truncated
	f.Add([]byte{}, "", uint32(0), uint32(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, "d", uint32(2), uint32(9)) // shorter than tag
	f.Fuzz(func(t *testing.T, stored []byte, docID string, version, blockIdx uint32) {
		n := max(len(stored)-MACLen, 0)
		plain := bytes.Repeat([]byte{0xa5}, n)
		err := ctx.DecryptBlockInto(plain, docID, version, blockIdx, stored)
		owned := append([]byte(nil), stored...)
		inPlaceErr := ctx.DecryptBlockInto(owned[:n], docID, version, blockIdx, owned)
		if (err != nil) != (inPlaceErr != nil) {
			t.Fatalf("into a buffer: %v; in place: %v", err, inPlaceErr)
		}
		if err != nil {
			if !errors.Is(err, ErrIntegrity) || !errors.Is(inPlaceErr, ErrIntegrity) {
				t.Fatalf("non-integrity error from arbitrary input: %v / %v", err, inPlaceErr)
			}
			if len(stored) >= MACLen && (!bytes.Equal(plain, make([]byte, n)) || !bytes.Equal(owned[:n], make([]byte, n))) {
				t.Fatal("a refused open left bytes in its destination")
			}
			return
		}
		if !bytes.Equal(plain, owned[:n]) {
			t.Fatal("the in-place open disagrees with the open into a buffer")
		}
		again, err := ctx.EncryptBlock(docID, version, blockIdx, plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, stored) {
			t.Fatalf("accepted stored block is not the canonical encryption of its plaintext")
		}
	})
}

// FuzzDecryptBlob covers the blob framing (namespace binding) the rule
// store depends on: arbitrary sealed bytes must never open, except the
// genuine seal under the genuine namespace and version.
func FuzzDecryptBlob(f *testing.F) {
	key := KeyFromSeed("fuzz-blob")
	sealed, err := EncryptBlob(key, "rules:doc|alice", 3, []byte("GRANT read"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed, "rules:doc|alice", uint32(3))
	f.Add(sealed, "rules:doc|bob", uint32(3))   // wrong namespace
	f.Add(sealed, "rules:doc|alice", uint32(4)) // wrong version
	f.Add(sealed[:4], "rules:doc|alice", uint32(3))
	f.Add([]byte(nil), "", uint32(0))
	f.Fuzz(func(t *testing.T, blob []byte, namespace string, version uint32) {
		plain, err := DecryptBlob(key, namespace, version, blob)
		if err != nil {
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("non-integrity error from arbitrary blob: %v", err)
			}
			return
		}
		again, err := EncryptBlob(key, namespace, version, plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("accepted blob is not the canonical seal of its plaintext")
		}
	})
}

// FuzzKeystream compares ctrXOR, with the keystream kernel and with the
// portable loop, into a disjoint buffer and in place, against
// cipher.NewCTR for arbitrary keys, counters and data.
func FuzzKeystream(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(1), uint32(2), uint32(3), []byte("seventeen bytes!!"))
	f.Add([]byte{}, ^uint64(0), ^uint32(0), ^uint32(0)-3, bytes.Repeat([]byte{0x5a}, 200))
	f.Fuzz(func(t *testing.T, keyBytes []byte, tag uint64, version, blockIdx uint32, data []byte) {
		var key DocKey
		copy(key.Enc[:], keyBytes)
		ctx, err := NewBlockContext(key)
		if err != nil {
			t.Fatal(err)
		}
		want := ctrReference(t, key, tag, version, blockIdx, data)
		if err := keystreamPaths(t, ctx, tag, version, blockIdx, data, want); err != nil {
			t.Fatal(err)
		}
	})
}
