package docenc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/secure"
	"repro/internal/skipindex"
	"repro/internal/tagdict"
	"repro/internal/workload"
)

// TestDecoderNeverPanicsOnCorruptPayload: random mutations of a valid
// payload must produce clean errors (or a silently consistent decode),
// never a panic or an endless loop. The SOE parses attacker-held bytes;
// robustness here is part of the security argument.
func TestDecoderNeverPanicsOnCorruptPayload(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 3, Members: 4, EventsPerMember: 3})
	payload, _, err := EncodePayload(doc, EncodeOptions{MinSkipBytes: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		mutated := append([]byte(nil), payload...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: decoder panicked: %v", trial, r)
				}
			}()
			dict, dec, err := ParsePayload(mutated)
			if err != nil {
				return // rejected at the dictionary: fine
			}
			_ = dict
			// Bounded walk: a consistent decode of a corrupt payload is
			// acceptable (the MAC layer rejects it upstream); loops and
			// panics are not.
			for steps := 0; steps < 100000; steps++ {
				it, err := dec.Next()
				if err != nil {
					return
				}
				if it.Kind == ItemEOF {
					return
				}
			}
			t.Fatalf("trial %d: decoder did not terminate", trial)
		}()
	}
}

// TestDecoderNeverPanicsOnRandomBytes: pure noise as payload.
func TestDecoderNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		junk := make([]byte, rng.Intn(400))
		rng.Read(junk)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panicked on noise: %v", trial, r)
				}
			}()
			_, dec, err := ParsePayload(junk)
			if err != nil {
				return
			}
			for steps := 0; steps < 10000; steps++ {
				it, err := dec.Next()
				if err != nil || it.Kind == ItemEOF {
					return
				}
			}
		}()
	}
}

// TestSkipOverrunRejected: a hostile ContentSize cannot push the decoder
// past the payload.
func TestSkipOverrunRejected(t *testing.T) {
	doc := workload.Agenda(workload.AgendaConfig{Seed: 4, Members: 2, EventsPerMember: 2})
	payload, _, err := EncodePayload(doc, EncodeOptions{MinSkipBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, dec, err := ParsePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	for {
		it, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if it.Kind == ItemEOF {
			t.Skip("no indexed node found (payload too small)")
		}
		if it.Kind == ItemOpen && it.Meta != nil {
			bad := *it.Meta
			bad.ContentSize = 1 << 30
			if err := dec.SkipContent(&bad); err == nil {
				t.Fatal("overrunning skip accepted")
			}
			return
		}
	}
}

// TestDeclaredLengthsBoundedByPayload: a value length and a skip-index
// content size are compared, as uint64, with the bytes the payload still
// has. A length of 2^63 once became a negative int: the value item came
// out with Size -9223372036854775808, no chunk followed, and the payload
// decoded cleanly to EOF with the text node dropped.
func TestDeclaredLengthsBoundedByPayload(t *testing.T) {
	dict, err := tagdict.FromTags([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	uvarint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// An indexed root over a two-tag dictionary carries a one-byte bitmap.
	for name, tc := range map[string]struct {
		payload []byte
		items   int // items decoded before the failure
	}{
		"value of 2^63 bytes":             {cat([]byte{opOpenPlain, 0, opValue}, uvarint(1<<63), []byte{opClose}), 1},
		"value of 2^64-1 bytes":           {cat([]byte{opOpenPlain, 0, opValue}, uvarint(1<<64-1), []byte{opClose}), 1},
		"value one byte past the payload": {cat([]byte{opOpenPlain, 0, opValue}, uvarint(3), []byte("xy")), 1},
		"streamed value one byte past":    {cat([]byte{opOpenPlain, 0, opValue}, uvarint(101), bytes.Repeat([]byte("x"), 100)), 1},
		"content of 2^63 bytes":           {cat([]byte{opOpenMeta, 0, 0x00}, uvarint(1<<63), []byte{opClose}), 0},
		"content of 2^64-1 bytes":         {cat([]byte{opOpenMeta, 0, 0x00}, uvarint(1<<64-1), []byte{opClose}), 0},
		"content one byte past":           {cat([]byte{opOpenMeta, 0, 0x00}, uvarint(2), []byte{opClose}), 0},
	} {
		dec := NewDecoder(NewBytesSource(tc.payload), dict)
		items := 0
		var err error
		for err == nil {
			var it Item
			if it, err = dec.Next(); err == nil {
				if it.Kind == ItemEOF {
					t.Errorf("%s: decoded cleanly to EOF", name)
					break
				}
				if it.Size < 0 || it.Meta != nil && it.Meta.ContentSize < 0 {
					t.Errorf("%s: item with a negative length: %+v", name, it)
				}
				items++
			}
		}
		if err != nil && (!strings.Contains(err.Error(), "malformed") || items != tc.items) {
			t.Errorf("%s: failed after %d item(s) with %q; want a malformed-payload error after %d", name, items, err, tc.items)
		}
	}
	// The lengths that just fit are not errors.
	for name, payload := range map[string][]byte{
		"value":   cat([]byte{opOpenPlain, 0, opValue}, uvarint(2), []byte("xy"), []byte{opClose}),
		"content": cat([]byte{opOpenMeta, 0, 0x00}, uvarint(1), []byte{opClose}),
	} {
		dec := NewDecoder(NewBytesSource(payload), dict)
		for {
			it, err := dec.Next()
			if err != nil {
				t.Errorf("%s that exactly fits: %v", name, err)
				break
			}
			if it.Kind == ItemEOF {
				break
			}
		}
	}
}

// validHeaderImage builds a marshalled header with generation runs — the
// richest header shape the parser accepts.
func validHeaderImage(t *testing.T) []byte {
	t.Helper()
	h := Header{DocID: "robust-doc", Version: 9, BlockPlain: 128, PayloadLen: 1000,
		GenRuns: []GenRun{{Count: 2, Gen: 3}, {Count: 5, Gen: 9}, {Count: 1, Gen: 7}}}
	img, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestUnmarshalHeaderTruncated: every proper prefix of a valid header
// must be rejected cleanly — the header is the first attacker-held input
// the terminal parses.
func TestUnmarshalHeaderTruncated(t *testing.T) {
	img := validHeaderImage(t)
	if _, n, err := UnmarshalHeader(img); err != nil || n != len(img) {
		t.Fatalf("valid header rejected: n=%d err=%v", n, err)
	}
	for cut := 0; cut < len(img); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix of %d bytes: parser panicked: %v", cut, r)
				}
			}()
			if _, _, err := UnmarshalHeader(img[:cut]); err == nil {
				t.Fatalf("prefix of %d bytes accepted", cut)
			}
		}()
	}
}

// TestUnmarshalHeaderBitFlips: random corruption must never panic, hang
// or produce a header whose generation vector escapes its own geometry.
func TestUnmarshalHeaderBitFlips(t *testing.T) {
	img := validHeaderImage(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte(nil), img...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: parser panicked: %v", trial, r)
				}
			}()
			h, _, err := UnmarshalHeader(mutated)
			if err != nil {
				return // rejected: fine (the MAC layer catches the rest)
			}
			// A parse that survives must stay internally consistent.
			if h.BlockPlain == 0 {
				t.Fatalf("trial %d: zero block size escaped validation", trial)
			}
			covered := 0
			for _, r := range h.GenRuns {
				if r.Gen > h.Version {
					t.Fatalf("trial %d: generation %d beyond version %d", trial, r.Gen, h.Version)
				}
				covered += int(r.Count)
			}
			if len(h.GenRuns) > 0 && covered != h.NumBlocks() {
				t.Fatalf("trial %d: %d-block gen vector over %d-block geometry", trial, covered, h.NumBlocks())
			}
			// BlockGen must stay total over the geometry.
			for i := 0; i < h.NumBlocks() && i < 1<<12; i++ {
				_ = h.BlockGen(i)
			}
		}()
	}
}

// TestUnmarshalHeaderHostileLengths: the doc-id length is compared with
// the bytes left as an unsigned number — 2^63 and up used to wrap
// negative, pass the bound and panic in the slice expression, on bytes
// any peer can send — and a version or block size that does not fit its
// 32-bit field is refused, not truncated.
func TestUnmarshalHeaderHostileLengths(t *testing.T) {
	field := func(vs ...uint64) []byte {
		b := append([]byte(nil), magic[:]...)
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	tail := func(b []byte, s string) []byte { return append(b, s...) }
	valid, err := (&Header{DocID: "abc", Version: 1, BlockPlain: 128, PayloadLen: 10}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		img  []byte
	}{
		{"doc id of 2^63 bytes", tail(field(1<<63), "abc")},
		{"doc id of 2^64-1 bytes", tail(field(1<<64-1), "abc")},
		{"doc id one past the end", tail(field(4), "abc")},
		{"doc id of 2^31 bytes", tail(field(1<<31), "abc")},
		{"version 2^32", append(tail(field(3), "abc"), field(1<<32, 128, 10, 0)[4:]...)},
		{"block size 2^32", append(tail(field(3), "abc"), field(1, 1<<32, 10, 0)[4:]...)},
		{"block size 2^63", append(tail(field(3), "abc"), field(1, 1<<63, 10, 0)[4:]...)},
		{"padded varint", append(tail(field(3), "abc"), append([]byte{0x81, 0x00}, valid[9:]...)...)},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: parser panicked: %v", c.name, r)
				}
			}()
			if h, n, err := UnmarshalHeader(append(c.img, make([]byte, secure.HeaderMACLen)...)); err == nil {
				t.Errorf("%s: accepted as %+v (%d bytes)", c.name, h, n)
			}
		}()
	}
	if h, n, err := UnmarshalHeader(valid); err != nil || n != len(valid) || h.DocID != "abc" {
		t.Fatalf("the valid image the cases are cut from: %+v, %d, %v", h, n, err)
	}
}

// FuzzUnmarshalHeader: the header decoder runs on bytes a store, a
// gateway or a publisher's peer supplies. Whatever they are it returns
// or refuses, never panics; and a header it accepts marshals back to
// exactly the bytes it consumed.
func FuzzUnmarshalHeader(f *testing.F) {
	valid, err := (&Header{DocID: "robust-doc", Version: 9, BlockPlain: 128, PayloadLen: 1000,
		GenRuns: []GenRun{{Count: 2, Gen: 3}, {Count: 5, Gen: 9}, {Count: 1, Gen: 7}}}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(binary.AppendUvarint(append([]byte(nil), magic[:]...), 1<<63), "abc"...))
	f.Add([]byte("SDS2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := UnmarshalHeader(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		back, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data[:n]) {
			t.Fatalf("decoded %x\n      as %+v,\nwhich marshals to %x", data[:n], h, back)
		}
	})
}

// TestUnmarshalHeaderHostileRunCount: a generation-run count far beyond
// the geometry must be rejected before any allocation is attempted.
func TestUnmarshalHeaderHostileRunCount(t *testing.T) {
	h := Header{DocID: "x", Version: 1, BlockPlain: 128, PayloadLen: 256}
	base := h.canonical()
	// canonical ends with uvarint(0) for "no runs"; rewrite the tail
	// with a huge run count and no run data.
	img := append(base[:len(base)-1], 0xff, 0xff, 0xff, 0xff, 0x7f)
	img = append(img, make([]byte, secure.HeaderMACLen)...)
	if _, _, err := UnmarshalHeader(img); err == nil {
		t.Fatal("hostile run count accepted")
	}
}

// TestDecodeMetaRobust: truncated and bit-flipped skip-index records
// against assorted parent sets must error or decode, never panic; a
// decoded record's tag set must stay inside the parent set (the decoder
// stack's invariant).
func TestDecodeMetaRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(40)
		parent := skipindex.NewSet(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				parent.Add(tagdict.Code(i))
			}
		}
		child := skipindex.NewSet(n)
		for i := 0; i < n; i++ {
			if parent.Has(tagdict.Code(i)) && rng.Intn(2) == 0 {
				child.Add(tagdict.Code(i))
			}
		}
		img := skipindex.AppendMeta(nil, skipindex.NodeMeta{Tags: child, ContentSize: rng.Intn(1 << 20)}, parent)
		// decode reads a record the way Decoder.readMeta does: the
		// relative bitmap, then the content size.
		decode := func(img []byte) (skipindex.Set, error) {
			tags := skipindex.NewSet(n)
			k, err := skipindex.DecodeRelInto(tags, img, parent)
			if err != nil {
				return tags, err
			}
			if _, m := binary.Uvarint(img[k:]); m <= 0 {
				return tags, fmt.Errorf("truncated content size")
			}
			return tags, nil
		}
		// Truncations.
		for cut := 0; cut < len(img); cut++ {
			if _, err := decode(img[:cut]); err == nil {
				t.Fatalf("trial %d: %d-byte prefix of a %d-byte record accepted", trial, cut, len(img))
			}
		}
		// Bit flips: must never panic and never escape the parent set.
		mutated := append([]byte(nil), img...)
		if len(mutated) > 0 {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		tags, err := decode(mutated)
		if err != nil {
			continue
		}
		if !tags.SubsetOf(parent) {
			t.Fatalf("trial %d: decoded tag set escapes the parent set", trial)
		}
	}
}

var _ = fmt.Sprintf
