// Package core implements the paper's two contributions on top of the
// matching-discovery automaton and the synchronous message-passing
// substrate:
//
//   - Algorithm 1: distributed edge coloring of an undirected graph
//     (ColorEdges). At most 2Δ-1 colors, O(Δ) computation rounds,
//     one-hop information.
//   - Algorithm 2 (DiMa2Ed): distributed strong (distance-2) edge
//     coloring of a symmetric digraph (ColorStrong), with the
//     claim/confirm exchange correction described in DESIGN.md.
//
// Both algorithms are implemented as net.Node state machines whose
// states are validated against the automaton's transition table, so any
// deviation from the paper's state diagram panics in tests.
package core

import (
	"math/bits"

	"dima/internal/rng"
)

// ColorSet is a growable bit set over non-negative color indices. The
// zero value is an empty set ready for use.
type ColorSet struct {
	words []uint64
}

// Add inserts color c. It panics on negative colors, which would
// indicate a protocol bug.
func (s *ColorSet) Add(c int) {
	if c < 0 {
		panic("core: negative color")
	}
	w := c >> 6
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(c) & 63)
}

// Has reports whether color c is in the set.
func (s *ColorSet) Has(c int) bool {
	if c < 0 {
		return false
	}
	w := c >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(c)&63)) != 0
}

// Count returns the number of colors in the set.
func (s *ColorSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Max returns the largest color in the set, or -1 if empty.
func (s *ColorSet) Max() int {
	for i := len(s.words) - 1; i >= 0; i-- {
		if s.words[i] != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(s.words[i])
		}
	}
	return -1
}

// AddSet inserts every color of t into s. Nil t is a no-op.
func (s *ColorSet) AddSet(t *ColorSet) {
	if t == nil {
		return
	}
	for len(s.words) < len(t.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Clone returns an independent copy of s.
func (s *ColorSet) Clone() *ColorSet {
	return &ColorSet{words: append([]uint64(nil), s.words...)}
}

// LowestFree returns the smallest color contained in none of the given
// sets — the paper's "lowest indexed color available" rule (line 1.11).
// Nil sets are permitted and treated as empty.
func LowestFree(sets ...*ColorSet) int {
	for w := 0; ; w++ {
		var used uint64
		for _, s := range sets {
			if s != nil && w < len(s.words) {
				used |= s.words[w]
			}
		}
		if used != ^uint64(0) {
			return w<<6 + bits.TrailingZeros64(^used)
		}
	}
}

// FreeBelow returns all colors in [0, bound) contained in none of the
// given sets, in increasing order. RandomFreeBelow draws from this list
// without building it.
func FreeBelow(bound int, sets ...*ColorSet) []int {
	var free []int
	for c := 0; c < bound; c++ {
		ok := true
		for _, s := range sets {
			if s != nil && s.Has(c) {
				ok = false
				break
			}
		}
		if ok {
			free = append(free, c)
		}
	}
	return free
}

// RandomFreeBelow draws a color uniformly from FreeBelow(bound, sets...)
// with exactly the draw the slice form takes, free[r.Intn(len(free))],
// so it returns the same color for the same stream. It works on whole
// bitset words and allocates nothing. Like r.Intn, it panics when no
// color is free.
func RandomFreeBelow(r *rng.Rand, bound int, sets ...*ColorSet) int {
	count := 0
	for w := 0; w<<6 < bound; w++ {
		count += bits.OnesCount64(freeWord(w, bound, sets))
	}
	k := r.Intn(count)
	for w := 0; ; w++ {
		free := freeWord(w, bound, sets)
		if c := bits.OnesCount64(free); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			free &= free - 1 // drop the lowest free color
		}
		return w<<6 + bits.TrailingZeros64(free)
	}
}

// freeWord returns word w of the set of colors below bound that none of
// sets contains.
func freeWord(w, bound int, sets []*ColorSet) uint64 {
	var used uint64
	for _, s := range sets {
		if s != nil && w < len(s.words) {
			used |= s.words[w]
		}
	}
	free := ^used
	if rem := bound - w<<6; rem < 64 {
		free &= 1<<uint(rem) - 1
	}
	return free
}

// MaxOf returns the largest color across the given sets, or -1 if all
// are empty.
func MaxOf(sets ...*ColorSet) int {
	m := -1
	for _, s := range sets {
		if s == nil {
			continue
		}
		if v := s.Max(); v > m {
			m = v
		}
	}
	return m
}
