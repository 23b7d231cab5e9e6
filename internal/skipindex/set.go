// Package skipindex implements the paper's Skip Index: a compact,
// stream-embedded structural index that lets the SOE skip subtrees in
// which no access rule or query can apply.
//
// "The minimal information required to achieve this goal is the set of
// element tags that appear in each subtree (to check whether an access
// rule automaton is likely to reach its final state) as well as the
// subtree size (to make the skip actually possible). [...] we compress the
// document structure using a dictionary of tags and encode the set of tags
// thanks to a bit array referring to the tag dictionary. To further reduce
// the indexing overhead, we apply recursive compression on both the set of
// tags bit array and the subtree size." (Section 2.3.)
//
// This package provides the tag-set bit array (Set), its recursive
// compression (a child's set is a subset of its parent's set, so it is
// encoded with one bit per *set* bit of the parent), and the per-node
// metadata record interleaved in the encoded document stream.
package skipindex

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/tagdict"
)

// Set is a bit array over tag codes of a fixed universe (the document's
// tag dictionary).
type Set struct {
	words []uint64
	n     int // universe size in bits
}

// NewSet returns an empty set over a universe of n codes.
func NewSet(n int) Set {
	return Set{words: make([]uint64, SetWords(n)), n: n}
}

// SetWords is the number of words a set over n codes occupies.
func SetWords(n int) int { return (n + 63) / 64 }

// SetOver returns the set over n codes held in words, which the caller
// owns (SetWords(n) of them; their bits are the members): an encoder
// annotating every element of a document carves its sets out of one slab
// instead of making one per element.
func SetOver(words []uint64, n int) Set {
	if len(words) != SetWords(n) {
		panic(fmt.Sprintf("skipindex: %d words for a set over %d codes", len(words), n))
	}
	return Set{words: words, n: n}
}

// Reuse returns an empty set over n codes in s's words, which grow only
// when n needs more of them: s is not to be used afterwards.
func (s Set) Reuse(n int) Set {
	w := slices.Grow(s.words[:0], SetWords(n))[:SetWords(n)]
	clear(w)
	return Set{words: w, n: n}
}

// Universe returns the universe size the set was created with.
func (s Set) Universe() int { return s.n }

// Add inserts code c.
func (s Set) Add(c tagdict.Code) {
	i := int(c)
	if i >= s.n {
		panic(fmt.Sprintf("skipindex: code %d outside universe %d", c, s.n))
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Has reports membership of code c. Codes outside the universe (notably
// tagdict.NoCode) are never members.
func (s Set) Has(c tagdict.Code) bool {
	i := int(c)
	if i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of codes in the set.
func (s Set) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// UnionWith adds all members of o to s. The universes must match.
func (s Set) UnionWith(o Set) {
	if s.n != o.n {
		panic("skipindex: union of sets over different universes")
	}
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// SubsetOf reports whether every member of s is in o.
func (s Set) SubsetOf(o Set) bool {
	if s.n != o.n {
		panic("skipindex: subset test over different universes")
	}
	for i := range s.words {
		if s.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Members returns the codes in ascending order.
func (s Set) Members() []tagdict.Code {
	var out []tagdict.Code
	for i := 0; i < s.n; i++ {
		if s.Has(tagdict.Code(i)) {
			out = append(out, tagdict.Code(i))
		}
	}
	return out
}

// Equal reports whether both sets have the same universe and members.
func (s Set) Equal(o Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the set as a compact member list (debugging).
func (s Set) String() string {
	return fmt.Sprintf("Set%v", s.Members())
}

// MemBytes is the logical secure-memory footprint of the set: the packed
// bit-array size a card-resident layout needs (used for SOE RAM
// accounting).
func (s Set) MemBytes() int { return (s.n + 7) / 8 }
