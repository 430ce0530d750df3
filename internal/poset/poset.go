// Package poset implements the preordered sets behind FlexOS'
// design-space exploration (§5, "partial safety ordering"): nodes are
// safety configurations, a directed edge means one configuration is
// probabilistically at least as safe as another, and — given a
// performance label per node and a minimum performance budget — the
// "safest configurations under the budget" are the maximal elements of
// the sub-poset meeting the budget.
//
// The package is generic: the exploration layer instantiates it with
// configuration indices, one poset per group of mutually comparable
// configurations, and tests instantiate it with integers.
//
// A poset stores its relation as a bitset matrix, built once; every
// query afterwards — Leq, Edges, Maximal, Above — runs on bit
// operations instead of re-invoking the relation. New evaluates a
// relation once per ordered pair. Meet builds the conjunction of
// per-field orders with no relation evaluated per pair of items: row i
// is the word-wise AND of the up-sets of i's value in each field.
// Edges reduces the matrix a word at a time: an item's covers are the
// items strictly above it minus everything strictly above those, and
// only an item still in the cover set when reached is subtracted, so a
// mostly chained order costs few of the n² row subtractions.
package poset

import (
	"fmt"
	"math/bits"
)

// Poset is a finite preordered set over items of type T with order
// relation leq ("less or equally safe"). leq must be reflexive and
// transitive, which CheckOrder verifies on the given items. It need not
// be antisymmetric: distinct items may order each other both ways (the
// engine's identical twins, or mechanisms of equal strength), and every
// query treats such items as equivalent, neither strictly above the
// other.
type Poset[T any] struct {
	items []T
	words int      // bitset words per row
	rows  []uint64 // n rows × words bits: bit j of row i == leq(i, j)
}

// New builds a poset over items with the given order relation,
// evaluating it once per ordered pair.
func New[T any](items []T, leq func(a, b T) bool) *Poset[T] {
	n := len(items)
	w := (n + 63) / 64
	p := &Poset[T]{items: items, words: w, rows: make([]uint64, n*w)}
	for i := 0; i < n; i++ {
		row := p.rows[i*w : (i+1)*w]
		for j := 0; j < n; j++ {
			if leq(items[i], items[j]) {
				row[j>>6] |= 1 << uint(j&63)
			}
		}
	}
	return p
}

// Field is one factor of a Meet order: item i takes the value Of[i] in
// [0, Values), and Leq, a preorder on those values, orders them.
type Field struct {
	Of     []int32
	Values int
	Leq    func(x, y int) bool
}

// Meet builds a poset over items ordered by the conjunction of the
// fields: i ≤ j exactly when every field orders Of[i] at most Of[j].
// It evaluates each field's Leq once per pair of values, never per pair
// of items: the up-set of a value — the items whose value is at or
// above it — is a word-wise OR of the items holding each such value,
// and row i is the word-wise AND of its values' up-sets. A field with a
// single value holds for every pair and is skipped. With no field left,
// every item is equivalent to every other.
func Meet[T any](items []T, fields []Field) *Poset[T] {
	n := len(items)
	w := (n + 63) / 64
	p := &Poset[T]{items: items, words: w, rows: make([]uint64, n*w)}
	for k := range p.rows {
		p.rows[k] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		for i := 0; i < n; i++ {
			p.rows[(i+1)*w-1] = 1<<uint(r) - 1
		}
	}
	values := 0
	for _, f := range fields {
		values = max(values, f.Values)
	}
	// holding[x] is the set of items whose value is x; up[x] the set of
	// items whose value is at or above x.
	holdingBuf, upBuf := make([]uint64, values*w), make([]uint64, values*w)
	for _, f := range fields {
		if f.Values < 2 {
			continue
		}
		holding, up := holdingBuf[:f.Values*w], upBuf[:f.Values*w]
		clear(holding)
		clear(up)
		for i, x := range f.Of {
			holding[int(x)*w+i>>6] |= 1 << uint(i&63)
		}
		for x := 0; x < f.Values; x++ {
			ux := up[x*w : (x+1)*w]
			for y := 0; y < f.Values; y++ {
				if f.Leq(x, y) {
					for k, word := range holding[y*w : (y+1)*w] {
						ux[k] |= word
					}
				}
			}
		}
		for i, x := range f.Of {
			row, ux := p.rows[i*w:(i+1)*w], up[int(x)*w:(int(x)+1)*w]
			for k := range row {
				row[k] &= ux[k]
			}
		}
	}
	return p
}

// Len returns the number of items.
func (p *Poset[T]) Len() int { return len(p.items) }

// row exposes the i-th matrix row — the set {j : leq(i, j)} — as a
// bitset view over the shared storage, without copying.
func (p *Poset[T]) row(i int) Bitset {
	return bitsetOver(p.rows[i*p.words:(i+1)*p.words], len(p.items))
}

// Leq reports whether item i is less-or-equally safe than item j.
func (p *Poset[T]) Leq(i, j int) bool {
	return p.row(i).Test(j)
}

// Edges returns the covering relation — the transitive reduction of the
// order, i.e. the edges one would draw in the Hasse diagram / DAG of
// Figure 5. An edge (i, j) means i < j with nothing in between. Edges
// are ordered by i, then by j.
func (p *Poset[T]) Edges() [][2]int {
	n, w := len(p.items), p.words
	strict := p.strictAbove()
	cover := make([]uint64, w)
	var edges [][2]int
	for i := 0; i < n; i++ {
		// covers(i) = strict(i) minus strict(k) for every k in
		// strict(i). Only a k still in the cover set is visited: one
		// already removed lies strictly above a visited k', so
		// strict(k) ⊆ strict(k') is gone already.
		copy(cover, strict[i*w:(i+1)*w])
		for x := 0; x < w; x++ {
			for word := cover[x]; word != 0; {
				b := bits.TrailingZeros64(word)
				m := x<<6 + b
				for y, above := range strict[m*w : (m+1)*w] {
					cover[y] &^= above
				}
				word = cover[x] &^ (1<<uint(b+1) - 1)
			}
		}
		for k, word := range cover {
			for ; word != 0; word &= word - 1 {
				edges = append(edges, [2]int{i, k<<6 + bits.TrailingZeros64(word)})
			}
		}
	}
	return edges
}

// strictAbove returns the n × words matrix whose row i holds the items
// strictly above i: row i of the relation minus the items j with
// leq(j, i), read from the transposed matrix.
func (p *Poset[T]) strictAbove() []uint64 {
	n, w := len(p.items), p.words
	strict := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		for k, word := range p.rows[i*w : (i+1)*w] {
			for ; word != 0; word &= word - 1 {
				j := k<<6 + bits.TrailingZeros64(word)
				strict[j*w+i>>6] |= 1 << uint(i&63)
			}
		}
	}
	for i := 0; i < n; i++ {
		row := strict[i*w : (i+1)*w]
		for k, below := range row {
			row[k] = p.rows[i*w+k] &^ below
		}
		row[i>>6] &^= 1 << uint(i&63)
	}
	return strict
}

// Maximal returns the indices of the maximal elements among the items
// in keep — the sinks of the filtered DAG (the green nodes of Figure 5,
// the stars of Figure 8). keep is a set over item indices and must
// have Len() == p.Len(). An item is dominated when its row, masked by
// keep, holds an item strictly above it, so the filter is read as
// words and no predicate is called per pair.
func (p *Poset[T]) Maximal(keep Bitset) []int {
	if keep.Len() != len(p.items) {
		panic(fmt.Sprintf("poset: Maximal filter over %d items, poset has %d", keep.Len(), len(p.items)))
	}
	// The maximal elements are at most the kept ones, so out is
	// allocated once (nil when nothing is kept).
	var out []int
	if c := keep.Count(); c > 0 {
		out = make([]int, 0, c)
	}
	for i := range p.items {
		if keep.Test(i) && !p.dominated(i, keep.words) {
			out = append(out, i)
		}
	}
	return out
}

// Above returns the indices of all items strictly safer than i.
func (p *Poset[T]) Above(i int) []int {
	var out []int
	row := p.rows[i*p.words : (i+1)*p.words]
	for k, w := range row {
		for ; w != 0; w &= w - 1 {
			if j := k<<6 + bits.TrailingZeros64(w); j != i && !p.Leq(j, i) {
				out = append(out, j)
			}
		}
	}
	return out
}

// dominated reports whether some item in mask is strictly above i. It
// scans row i word by word: a set bit j != i is strictly above unless
// the two items are equivalent (j <= i as well).
func (p *Poset[T]) dominated(i int, mask []uint64) bool {
	row := p.rows[i*p.words : (i+1)*p.words]
	for k, w := range row {
		for w &= mask[k]; w != 0; w &= w - 1 {
			if j := k<<6 + bits.TrailingZeros64(w); j != i && !p.Leq(j, i) {
				return true
			}
		}
	}
	return false
}

// CheckOrder verifies that leq is a preorder on the items: reflexive
// and transitive. It does not check antisymmetry; a Poset allows
// equivalent items. Intended for tests and for validating custom
// safety relations.
func (p *Poset[T]) CheckOrder() error {
	n := len(p.items)
	for i := 0; i < n; i++ {
		if !p.Leq(i, i) {
			return fmt.Errorf("poset: leq not reflexive at %d", i)
		}
	}
	// Transitivity: whenever i <= j, everything above j must be above
	// i, i.e. row(j) ⊆ row(i).
	for i := 0; i < n; i++ {
		ri := p.row(i)
		for j := 0; j < n; j++ {
			if !p.Leq(i, j) {
				continue
			}
			if !ri.ContainsAll(p.row(j)) {
				for k := 0; k < n; k++ {
					if p.Leq(j, k) && !p.Leq(i, k) {
						return fmt.Errorf("poset: leq not transitive at (%d,%d,%d)", i, j, k)
					}
				}
			}
		}
	}
	return nil
}
