package poset

// Bitset is a fixed-size set of small integers backed by a []uint64,
// the package's currency for order rows and for the exploration
// engine's decided/feasible frontiers. The zero value is an empty set
// of size 0; NewBitset sizes one. Operations never allocate (beyond
// NewBitset itself), which is what lets the engine keep per-decision
// bookkeeping off the heap at 10k–1M-point space sizes.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset over [0, n).
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// bitsetOver wraps existing word storage as a bitset over [0, n); the
// poset uses it to expose matrix rows without copying.
func bitsetOver(words []uint64, n int) Bitset { return Bitset{words: words, n: n} }

// Len returns the size of the universe [0, n).
func (b Bitset) Len() int { return b.n }

// Set adds i to the set.
func (b Bitset) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear removes i from the set.
func (b Bitset) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Test reports whether i is in the set.
func (b Bitset) Test(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Intersects reports whether the two sets share an element. The sets
// must have equal Len.
func (b Bitset) Intersects(o Bitset) bool {
	for k, w := range b.words {
		if w&o.words[k] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether o ⊆ b. The sets must have equal Len.
func (b Bitset) ContainsAll(o Bitset) bool {
	for k, w := range o.words {
		if w&^b.words[k] != 0 {
			return false
		}
	}
	return true
}
