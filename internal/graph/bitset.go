package graph

import "math/bits"

// bitset is a fixed-capacity bit vector used by the clique enumerator
// and the coloring select phase. Dense bit operations make
// Bron-Kerbosch set intersections and the free-color search word-wide
// instead of per-element.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

// intersect stores a & c into dst (all same length).
func (dst bitset) intersect(a, c bitset) {
	for i := range dst {
		dst[i] = a[i] & c[i]
	}
}

// andNot stores a &^ c into dst.
func (dst bitset) andNot(a, c bitset) {
	for i := range dst {
		dst[i] = a[i] &^ c[i]
	}
}

// intersectionCount returns popcount(a & c) without allocating.
func intersectionCount(a, c bitset) int {
	total := 0
	for i := range a {
		total += bits.OnesCount64(a[i] & c[i])
	}
	return total
}

func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

// forEach calls f for each set bit in ascending order until f returns
// false.
func (b bitset) forEach(f func(i int32) bool) {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !f(int32(wi*64 + bit)) {
				return
			}
			w &= w - 1
		}
	}
}

// firstAndNotFrom returns the first index set in b and clear in mask,
// searching cyclically from p: first [p, 64·len(b)), then [0, p). It
// returns -1 when every bit of b is also set in mask.
func (b bitset) firstAndNotFrom(mask bitset, p int) int {
	n := len(b)
	wi := p >> 6
	below := uint64(1)<<(uint(p)&63) - 1 // bits of p's word below p
	w := (b[wi] &^ mask[wi]) &^ below
	for j := 1; ; j++ {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		if j > n {
			return -1
		}
		if wi++; wi == n {
			wi = 0
		}
		w = b[wi] &^ mask[wi]
		if j == n {
			w &= below // back at p's word
		}
	}
}
