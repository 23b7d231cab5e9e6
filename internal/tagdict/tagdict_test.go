package tagdict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/race"
)

func TestAddAndLookup(t *testing.T) {
	d := New()
	a, err := d.Add("alpha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Add("beta")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct names must get distinct codes")
	}
	if got, _ := d.Add("alpha"); got != a {
		t.Errorf("re-adding alpha returned %d, want %d", got, a)
	}
	if d.Code("alpha") != a || d.Code("beta") != b {
		t.Error("Code lookup wrong")
	}
	if d.Code("gamma") != NoCode {
		t.Error("unknown name must map to NoCode")
	}
	if d.Name(a) != "alpha" {
		t.Error("Name lookup wrong")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestEmptyNameRejected(t *testing.T) {
	if _, err := New().Add(""); err == nil {
		t.Error("empty tag name must be rejected")
	}
}

func TestFromCountsOrdersByFrequency(t *testing.T) {
	d, err := FromCounts(map[string]int{"rare": 1, "common": 100, "mid": 10})
	if err != nil {
		t.Fatal(err)
	}
	if d.Code("common") != 0 || d.Code("mid") != 1 || d.Code("rare") != 2 {
		t.Errorf("frequency ordering wrong: %v", d.Names())
	}
}

func TestFromCountsDeterministicTies(t *testing.T) {
	a, _ := FromCounts(map[string]int{"x": 1, "y": 1, "z": 1})
	b, _ := FromCounts(map[string]int{"z": 1, "y": 1, "x": 1})
	for i := 0; i < a.Len(); i++ {
		if a.Name(Code(i)) != b.Name(Code(i)) {
			t.Fatal("tie-breaking must be deterministic")
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	d, _ := FromTags([]string{"folder", "patient", "@id", "ssn"})
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != d.ByteSize() {
		t.Errorf("ByteSize = %d, marshaled %d", d.ByteSize(), len(blob))
	}
	// Round trip with trailing data: consumed count must be exact.
	back, n, err := UnmarshalBinary(append(blob, 0xAA, 0xBB))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Errorf("consumed %d bytes, want %d", n, len(blob))
	}
	if back.Len() != d.Len() {
		t.Fatalf("Len changed: %d -> %d", d.Len(), back.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if back.Name(Code(i)) != d.Name(Code(i)) {
			t.Errorf("code %d: %q -> %q", i, d.Name(Code(i)), back.Name(Code(i)))
		}
	}
}

// TestUnmarshalErrors: every malformed dictionary fails, and only one
// cut short wraps ErrTruncated — the one error more bytes could cure.
func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		data      []byte
		truncated bool
	}{
		{[]byte{}, true},                 // no count
		{[]byte{0x80}, true},             // count varint cut short
		{[]byte{0xFF, 0xFF, 0xFF}, true}, // huge count varint, cut short
		{[]byte{2, 3, 'a'}, true},        // name cut short
		{[]byte{2, 1, 'a'}, true},        // second tag missing
		{[]byte{2, 1, 'a', 0x81}, true},  // second length cut short
		// A name length of 2^63: negative as an int, it once passed the
		// bound check and panicked in the slice expression.
		{[]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'a'}, true},
		{[]byte{1, 0, 'a'}, false},              // empty name
		{[]byte{0x81, 0x40}, false},             // 8193 tags
		{bytes.Repeat([]byte{0xFF}, 11), false}, // count overflows 64 bits
		{[]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, false}, // length overflows
	}
	for i, c := range cases {
		_, _, err := UnmarshalBinary(c.data)
		if err == nil {
			t.Errorf("case %d (% x): decoded", i, c.data)
			continue
		}
		if got := errors.Is(err, ErrTruncated); got != c.truncated {
			t.Errorf("case %d (% x): %v; truncated %t, want %t", i, c.data, err, got, c.truncated)
		}
	}
}

func TestMaxTagsEnforced(t *testing.T) {
	d := New()
	for i := 0; i < MaxTags; i++ {
		if _, err := d.Add(string(rune('a')) + string(rune('0'+i%10)) + string(rune('A'+(i/10)%26)) + string(rune('a'+(i/260)%26)) + string(rune('a'+i/6760))); err != nil {
			t.Fatalf("tag %d rejected: %v", i, err)
		}
	}
	if _, err := d.Add("one-too-many"); err == nil {
		t.Error("exceeding MaxTags must fail")
	}
}

// TestQuickRoundTrip: any tag list survives marshal/unmarshal.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []string) bool {
		d := New()
		for _, s := range raw {
			if s == "" || len(s) > 100 {
				continue
			}
			if _, err := d.Add(s); err != nil {
				return false
			}
		}
		blob, err := d.MarshalBinary()
		if err != nil {
			return false
		}
		back, n, err := UnmarshalBinary(blob)
		if err != nil || n != len(blob) || back.Len() != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if back.Name(Code(i)) != d.Name(Code(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeAgainAllocatesNothing: decoding the dictionary a Dict already
// holds keeps every name's string and the map's storage.
func TestDecodeAgainAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	src, _ := FromTags([]string{"folder", "patient", "@id", "ssn", "visit", "diagnosis"})
	blob, _ := src.MarshalBinary()
	var d Dict
	if _, err := d.Decode(blob); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := d.Decode(blob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("re-decoding the same dictionary allocated %.0f times", n)
	}
}

// FuzzDictDecodeRearm: decoding B into a Dict that held A is decoding B
// into a new one — the names, every name's code, the bytes consumed and
// the error — whether B shrinks or grows A, renames a tag at a code A
// used, repeats a name, or either fails half way.
func FuzzDictDecodeRearm(f *testing.F) {
	enc := func(names ...string) []byte {
		var b []byte
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, n := range names {
			b = binary.AppendUvarint(b, uint64(len(n)))
			b = append(b, n...)
		}
		return b
	}
	abc := enc("a", "b", "c")
	f.Add(abc, enc("a", "b"))               // shrinks
	f.Add(enc("a"), abc)                    // grows
	f.Add(abc, enc("a", "x", "c"))          // renames at a code
	f.Add(abc, enc("c", "b", "a"))          // reorders
	f.Add(abc, enc("a", "a", "b", "c"))     // repeats a name
	f.Add(enc("a", "b", "a", "c"), abc)     // a repeat before
	f.Add(abc, append(enc("b", "c"), 0xEE)) // trailing bytes
	f.Add(abc[:4], abc)                     // A cut short
	f.Add(abc, []byte{3, 1, 'a', 0, 'b'})   // B with an empty name
	f.Add(abc, []byte{0x81, 0x40})          // B over MaxTags

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var d Dict
		_, _ = d.Decode(a)
		n, err := d.Decode(b)
		fresh, wantN, wantErr := UnmarshalBinary(b)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("after %x: error %v, fresh %v", a, err, wantErr)
		}
		if err != nil {
			return
		}
		if n != wantN {
			t.Fatalf("after %x: consumed %d, fresh %d", a, n, wantN)
		}
		if !slices.Equal(d.Names(), fresh.Names()) {
			t.Fatalf("after %x: names %q, fresh %q", a, d.Names(), fresh.Names())
		}
		for c, name := range fresh.Names() {
			if got := d.Code(name); got != Code(c) {
				t.Fatalf("after %x: %q has code %d, fresh %d", a, name, got, c)
			}
		}
		if prev, _, err := UnmarshalBinary(a); err == nil {
			for _, name := range prev.Names() {
				if d.Code(name) != fresh.Code(name) {
					t.Fatalf("after %x: %q from the decode before has code %d, fresh %d", a, name, d.Code(name), fresh.Code(name))
				}
			}
		}
	})
}
