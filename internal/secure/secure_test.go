package secure

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// seal and open are one block's seal and open through a fresh context.
func seal(t testing.TB, key DocKey, docID string, version, blockIdx uint32, plain []byte) []byte {
	t.Helper()
	c, err := NewBlockContext(key)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := c.EncryptBlock(docID, version, blockIdx, plain)
	if err != nil {
		t.Fatal(err)
	}
	return stored
}

func open(t testing.TB, key DocKey, docID string, version, blockIdx uint32, stored []byte) ([]byte, error) {
	t.Helper()
	c, err := NewBlockContext(key)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, max(len(stored)-MACLen, 0))
	if err := c.DecryptBlockInto(dst, docID, version, blockIdx, stored); err != nil {
		return nil, err
	}
	return dst, nil
}

func TestBlockRoundTrip(t *testing.T) {
	key := KeyFromSeed("k1")
	plain := []byte("the quick brown fox jumps over the lazy dog")
	stored := seal(t, key, "doc", 1, 7, plain)
	if len(stored) != len(plain)+MACLen {
		t.Fatalf("stored size %d, want %d", len(stored), len(plain)+MACLen)
	}
	if bytes.Contains(stored, []byte("quick")) {
		t.Fatal("plaintext leaks into stored block")
	}
	back, err := open(t, key, "doc", 1, 7, stored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plain) {
		t.Fatalf("round trip changed data: %q", back)
	}
}

func TestBlockTamperDetected(t *testing.T) {
	key := KeyFromSeed("k1")
	stored := seal(t, key, "doc", 1, 7, []byte("payload data here"))
	for i := range stored {
		mutated := append([]byte(nil), stored...)
		mutated[i] ^= 0x01
		if _, err := open(t, key, "doc", 1, 7, mutated); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

// TestPositionalBinding: the attacks the paper names — substituting or
// moving encrypted blocks — must all be detected.
func TestPositionalBinding(t *testing.T) {
	key := KeyFromSeed("k1")
	plain := []byte("some confidential block")
	stored := seal(t, key, "doc", 1, 7, plain)

	cases := []struct {
		name         string
		docID        string
		version, idx uint32
	}{
		{"wrong position", "doc", 1, 8},
		{"wrong version (replay of an old version)", "doc", 2, 7},
		{"wrong document", "other", 1, 7},
	}
	for _, c := range cases {
		if _, err := open(t, key, c.docID, c.version, c.idx, stored); !errors.Is(err, ErrIntegrity) {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := open(t, KeyFromSeed("k2"), "doc", 1, 7, stored); !errors.Is(err, ErrIntegrity) {
		t.Error("wrong key: accepted")
	}
}

func TestShortBlockRejected(t *testing.T) {
	if _, err := open(t, KeyFromSeed("k"), "d", 0, 0, []byte{1, 2, 3}); !errors.Is(err, ErrIntegrity) {
		t.Error("block shorter than its tag must fail integrity")
	}
}

func TestHeaderMAC(t *testing.T) {
	ctx, _ := NewBlockContext(KeyFromSeed("k1"))
	other, _ := NewBlockContext(KeyFromSeed("k2"))
	hdr := []byte("header bytes")
	tag := ctx.HeaderMAC(hdr)
	if ctx.HeaderMAC(hdr) != tag {
		t.Fatal("header MAC is not deterministic")
	}
	if ctx.HeaderMAC([]byte("header bytez")) == tag {
		t.Error("modified header has the same tag")
	}
	if other.HeaderMAC(hdr) == tag {
		t.Error("another key gives the same tag")
	}
}

func TestBlobRoundTripAndNamespace(t *testing.T) {
	key := KeyFromSeed("k1")
	sealed, err := EncryptBlob(key, "rules:doc|alice", 3, []byte("rule data"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecryptBlob(key, "rules:doc|alice", 3, sealed)
	if err != nil || string(back) != "rule data" {
		t.Fatalf("round trip: %q, %v", back, err)
	}
	if _, err := DecryptBlob(key, "rules:doc|bob", 3, sealed); !errors.Is(err, ErrIntegrity) {
		t.Error("cross-namespace blob accepted")
	}
	if _, err := DecryptBlob(key, "rules:doc|alice", 4, sealed); !errors.Is(err, ErrIntegrity) {
		t.Error("cross-version blob accepted")
	}
}

func TestKeyMarshal(t *testing.T) {
	key, err := NewDocKey()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalDocKey(key.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back != key {
		t.Fatal("key round trip changed material")
	}
	if _, err := UnmarshalDocKey([]byte("short")); err == nil {
		t.Error("short key material accepted")
	}
}

func TestKeyFromSeedDeterministicAndDistinct(t *testing.T) {
	if KeyFromSeed("a") != KeyFromSeed("a") {
		t.Error("same seed must derive the same key")
	}
	if KeyFromSeed("a") == KeyFromSeed("b") {
		t.Error("different seeds must derive different keys")
	}
}

func TestDistinctBlocksDistinctCiphertext(t *testing.T) {
	// CTR keystreams must differ per position: identical plaintext at two
	// positions must not produce identical ciphertext.
	key := KeyFromSeed("k1")
	plain := bytes.Repeat([]byte{0x42}, 64)
	a := seal(t, key, "doc", 1, 0, plain)
	b := seal(t, key, "doc", 1, 1, plain)
	if bytes.Equal(a[:64], b[:64]) {
		t.Fatal("two positions share a keystream")
	}
}

// TestQuickRoundTrip: arbitrary payloads round trip at arbitrary
// positions.
func TestQuickRoundTrip(t *testing.T) {
	key := KeyFromSeed("q")
	f := func(plain []byte, idx uint32, version uint32) bool {
		stored := seal(t, key, "doc", version, idx, plain)
		back, err := open(t, key, "doc", version, idx, stored)
		return err == nil && bytes.Equal(back, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
