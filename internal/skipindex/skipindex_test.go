package skipindex

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tagdict"
)

func setOf(n int, members ...int) Set {
	s := NewSet(n)
	for _, m := range members {
		s.Add(tagdict.Code(m))
	}
	return s
}

func TestSetBasics(t *testing.T) {
	s := setOf(100, 0, 7, 63, 64, 99)
	for _, m := range []int{0, 7, 63, 64, 99} {
		if !s.Has(tagdict.Code(m)) {
			t.Errorf("missing member %d", m)
		}
	}
	if s.Has(1) || s.Has(98) {
		t.Error("phantom members")
	}
	if s.Has(tagdict.NoCode) {
		t.Error("NoCode must never be a member")
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d, want 5", s.Count())
	}
	if NewSet(10).Count() != 0 {
		t.Error("fresh set must be empty")
	}
}

func TestSubsetAndUnion(t *testing.T) {
	a := setOf(70, 1, 2, 65)
	b := setOf(70, 1, 2, 3, 65)
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊄ a expected")
	}
	a.UnionWith(setOf(70, 3))
	if !a.Equal(b) {
		t.Errorf("union mismatch: %v vs %v", a, b)
	}
}

func TestRelativeCodec(t *testing.T) {
	parent := setOf(40, 2, 5, 9, 30, 39)
	child := setOf(40, 5, 30)
	enc := appendRel(nil, child, parent)
	if len(enc) != 1 {
		t.Fatalf("5 parent members must compress to 1 byte, got %d", len(enc))
	}
	back := NewSet(40)
	n, err := DecodeRelInto(back, enc, parent)
	if err != nil || n != 1 {
		t.Fatalf("decode: %v", err)
	}
	if !back.Equal(child) {
		t.Fatalf("round trip changed set: %v -> %v", child, back)
	}
}

func TestRelativeRejectsNonSubset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("encoding a non-subset must panic (encoder bug)")
		}
	}()
	appendRel(nil, setOf(10, 1), setOf(10, 2))
}

func TestMetaRoundTrip(t *testing.T) {
	parent := setOf(64, 1, 2, 3, 10, 20, 63)
	meta := NodeMeta{Tags: setOf(64, 2, 20), ContentSize: 123456}
	enc := AppendMeta(nil, meta, parent)
	if len(enc) != MetaSize(RelSize(parent), meta.ContentSize) {
		t.Errorf("MetaSize = %d, encoded %d", MetaSize(RelSize(parent), meta.ContentSize), len(enc))
	}
	tags := NewSet(64)
	n, err := DecodeRelInto(tags, enc, parent)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	size, m := binary.Uvarint(enc[n:])
	if n+m != len(enc) || !tags.Equal(meta.Tags) || int(size) != meta.ContentSize {
		t.Fatalf("round trip changed meta: %+v -> %v, %d", meta, tags, size)
	}
}

// TestQuickRelativeRoundTrip: random child ⊆ parent survives the
// recursive compression.
func TestQuickRelativeRoundTrip(t *testing.T) {
	f := func(seed int64, universe uint8) bool {
		n := int(universe)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		parent := NewSet(n)
		child := NewSet(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.4 {
				parent.Add(tagdict.Code(i))
				if rng.Float64() < 0.5 {
					child.Add(tagdict.Code(i))
				}
			}
		}
		enc := appendRel(nil, child, parent)
		if len(enc) != RelSize(parent) {
			return false
		}
		back := NewSet(n)
		_, err := DecodeRelInto(back, enc, parent)
		return err == nil && back.Equal(child)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMemBytesPacked(t *testing.T) {
	if got := NewSet(9).MemBytes(); got != 2 {
		t.Errorf("9-bit set must charge 2 bytes, got %d", got)
	}
	if got := NewSet(64).MemBytes(); got != 8 {
		t.Errorf("64-bit set must charge 8 bytes, got %d", got)
	}
}

func TestMembersSorted(t *testing.T) {
	s := setOf(30, 20, 3, 11)
	m := s.Members()
	if len(m) != 3 || m[0] != 3 || m[1] != 11 || m[2] != 20 {
		t.Errorf("Members = %v", m)
	}
}
