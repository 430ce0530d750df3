// Package poset implements the partially ordered sets behind FlexOS'
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
// New evaluates the order relation once per ordered pair and stores the
// result in a bitset matrix; every query afterwards — Leq, Edges,
// Maximal, Above — runs on bit operations instead of re-invoking
// the (potentially allocating) relation. Edges reduces the matrix a
// word at a time: an item's covers are the items strictly above it
// minus everything strictly above those, so building the Hasse diagram
// of an n-point space costs O(n·|above|·n/64) word operations after the
// O(n²) relation evaluations. Product builds the poset of a product of
// two orders from the factors' matrices, with no relation evaluated per
// pair of items, and reads its covers off the factors' covers.
package poset

import (
	"fmt"
	"math/bits"
	"slices"
)

// Poset is a finite partially ordered set over items of type T with
// order relation leq ("less or equally safe"). leq must be reflexive,
// antisymmetric (up to item identity) and transitive; CheckOrder can
// verify a candidate relation on the given items.
type Poset[T any] struct {
	items []T
	words int      // bitset words per row
	rows  []uint64 // n rows × words bits: bit j of row i == leq(i, j)

	// covers computes the transitive reduction from the factors of a
	// Product poset; nil for a poset built by New.
	covers func() [][2]int
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
	if p.covers != nil {
		return p.covers()
	}
	n, w := len(p.items), p.words
	strict := p.strictAbove()
	cover := make([]uint64, w)
	var edges [][2]int
	for i := 0; i < n; i++ {
		// covers(i) = strict(i) minus strict(k) for every k in strict(i).
		si := strict[i*w : (i+1)*w]
		copy(cover, si)
		for k, word := range si {
			for ; word != 0; word &= word - 1 {
				m := k<<6 + bits.TrailingZeros64(word)
				for x, y := range strict[m*w : (m+1)*w] {
					cover[x] &^= y
				}
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

// Product builds the poset of items ordered as the product of two
// factor orders: item i ≤ item j exactly when a.Leq(aOf[i], aOf[j])
// and b.Leq(bOf[i], bOf[j]). The items must be a full product, every
// pair of factor indices the coordinates of exactly one item; Product
// panics otherwise. The factors may be preorders (distinct equivalent
// factor items). Rows are filled a word at a time from the factors'
// rows, and Edges takes the covers from the factors: (i, j) is a cover
// exactly when one coordinate of j covers i's and the other is
// equivalent to i's, since every other strict pair has an item
// between it.
func Product[T, A, B any](items []T, a *Poset[A], aOf []int32, b *Poset[B], bOf []int32) *Poset[T] {
	n, na, nb := len(items), a.Len(), b.Len()
	if n != na*nb || len(aOf) != n || len(bOf) != n {
		panic(fmt.Sprintf("poset: Product of %d items over %d × %d factors", n, na, nb))
	}
	// cell[x*nb+y] is the item at coordinates (x, y).
	cell := make([]int32, n)
	for x := range cell {
		cell[x] = -1
	}
	for i := range items {
		c := &cell[int(aOf[i])*nb+int(bOf[i])]
		if *c >= 0 {
			panic(fmt.Sprintf("poset: Product items %d and %d share coordinates (%d, %d)", *c, i, aOf[i], bOf[i]))
		}
		*c = int32(i)
	}
	w := (n + 63) / 64
	p := &Poset[T]{items: items, words: w, rows: make([]uint64, n*w)}
	set := func(row []uint64, i int32) { row[i>>6] |= 1 << uint(i&63) }
	// bUp[y] holds the items whose b coordinate is at or above y.
	bUp := make([]uint64, nb*w)
	for y := 0; y < nb; y++ {
		for y2 := 0; y2 < nb; y2++ {
			if b.Leq(y, y2) {
				for x := 0; x < na; x++ {
					set(bUp[y*w:(y+1)*w], cell[x*nb+y2])
				}
			}
		}
	}
	// aUp holds the items whose a coordinate is at or above x, for one
	// x at a time; row (x, y) is aUp ∩ bUp[y].
	aUp := make([]uint64, w)
	for x := 0; x < na; x++ {
		clear(aUp)
		for k, word := range a.rows[x*a.words : (x+1)*a.words] {
			for ; word != 0; word &= word - 1 {
				x2 := k<<6 + bits.TrailingZeros64(word)
				for _, i := range cell[x2*nb : (x2+1)*nb] {
					set(aUp, i)
				}
			}
		}
		for y := 0; y < nb; y++ {
			i := int(cell[x*nb+y])
			row, up := p.rows[i*w:(i+1)*w], bUp[y*w:(y+1)*w]
			for k := range row {
				row[k] = aUp[k] & up[k]
			}
		}
	}
	p.covers = func() [][2]int {
		aCov, aEq := a.coversAndClasses()
		bCov, bEq := b.coversAndClasses()
		var edges [][2]int
		var js []int
		for i := 0; i < n; i++ {
			x, y := aOf[i], bOf[i]
			js = js[:0]
			for _, x2 := range aCov[x] {
				for _, y2 := range bEq[y] {
					js = append(js, int(cell[int(x2)*nb+int(y2)]))
				}
			}
			for _, x2 := range aEq[x] {
				for _, y2 := range bCov[y] {
					js = append(js, int(cell[int(x2)*nb+int(y2)]))
				}
			}
			slices.Sort(js)
			for _, j := range js {
				edges = append(edges, [2]int{i, j})
			}
		}
		return edges
	}
	return p
}

// coversAndClasses returns, per item, the items covering it and the
// items equivalent to it (itself included), each ascending. The lists
// share two backing arrays.
func (p *Poset[T]) coversAndClasses() (covers, classes [][]int32) {
	n := len(p.items)
	edges := p.Edges()
	covers = make([][]int32, n)
	up := make([]int32, len(edges))
	for k, e := range edges {
		up[k] = int32(e[1])
	}
	for k := 0; k < len(edges); {
		i, start := edges[k][0], k
		for k < len(edges) && edges[k][0] == i {
			k++
		}
		covers[i] = up[start:k:k]
	}
	classes = make([][]int32, n)
	ends := make([]int, n)
	var eq []int32
	for i := 0; i < n; i++ {
		for k, word := range p.rows[i*p.words : (i+1)*p.words] {
			for ; word != 0; word &= word - 1 {
				if j := k<<6 + bits.TrailingZeros64(word); p.Leq(j, i) {
					eq = append(eq, int32(j))
				}
			}
		}
		ends[i] = len(eq)
	}
	for i, start := 0, 0; i < n; start, i = ends[i], i+1 {
		classes[i] = eq[start:ends[i]:ends[i]]
	}
	return covers, classes
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

// CheckOrder verifies that leq is a partial order on the items:
// reflexive, antisymmetric (by index), transitive. Intended for tests
// and for validating custom safety relations.
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
