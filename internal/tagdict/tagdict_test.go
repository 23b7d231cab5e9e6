package tagdict

import (
	"testing"
	"testing/quick"
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

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		{},                 // no count
		{2, 3, 'a'},        // truncated names
		{2, 1, 'a'},        // second name missing
		{0xFF, 0xFF, 0xFF}, // huge count varint (truncated)
		// A name length of 2^63: negative as an int, it once passed the
		// bound check and panicked in the slice expression.
		{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'a'},
	}
	for i, data := range cases {
		if _, _, err := UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: expected error", i)
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
