package sink

import (
	"math/bits"
	"slices"
)

// bitset is a small dynamically-sized bit vector: a row of the
// upstream-order matrix, or a set of its nodes.
type bitset []uint64

// newBitset returns a bitset able to hold n bits.
func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

// grow ensures the set can hold at least n bits.
func (b *bitset) grow(n int) {
	need := (n + 63) / 64
	for len(*b) < need {
		*b = append(*b, 0)
	}
}

// set marks bit i.
func (b *bitset) set(i int) {
	b.grow(i + 1)
	(*b)[i/64] |= 1 << (uint(i) % 64)
}

// clear unmarks bit i. Bits beyond the current capacity are already zero.
func (b bitset) clear(i int) {
	w := i / 64
	if w < len(b) {
		b[w] &^= 1 << (uint(i) % 64)
	}
}

// has reports whether bit i is set.
func (b bitset) has(i int) bool {
	w := i / 64
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)%64)) != 0
}

// reset returns b emptied and sized for n bits, reusing its words.
func (b bitset) reset(n int) bitset {
	b = slices.Grow(b[:0], (n+63)/64)[:(n+63)/64]
	clear(b)
	return b
}

// or merges other into b and reports whether b grew.
func (b *bitset) or(other bitset) bool {
	b.grow(len(other) * 64)
	dst, grew := (*b)[:len(other)], uint64(0)
	for i, w := range other {
		grew |= w &^ dst[i]
		dst[i] |= w
	}
	return grew != 0
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn for every set bit index.
func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			fn(wi*64 + i)
			w &= w - 1
		}
	}
}
