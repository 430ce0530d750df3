// Package poset implements the partially ordered sets behind FlexOS'
// design-space exploration (§5, "partial safety ordering"): nodes are
// safety configurations, a directed edge means one configuration is
// probabilistically at least as safe as another, and — given a
// performance label per node and a minimum performance budget — the
// "safest configurations under the budget" are the maximal elements of
// the sub-poset meeting the budget.
//
// The package is generic: the exploration layer instantiates it with its
// configuration descriptor, and tests instantiate it with integers.
//
// New evaluates the order relation once per ordered pair and stores the
// result in a bitset matrix; every query afterwards — Leq, Edges,
// Maximal, TopoOrder — runs on bit operations instead of re-invoking
// the (potentially allocating) relation. The transitive reduction in
// Edges intersects "strictly above" and "strictly below" bitsets, so
// building the Hasse diagram of an n-point space costs O(n³/64) word
// operations after the O(n²) relation evaluations — what keeps the
// exploration engine's setup negligible even for the multi-hundred
// point cross-application spaces.
package poset

import "fmt"

// Poset is a finite partially ordered set over items of type T with
// order relation leq ("less or equally safe"). leq must be reflexive,
// antisymmetric (up to item identity) and transitive; CheckOrder can
// verify a candidate relation on the given items.
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

// less is strict order: leq and not geq.
func (p *Poset[T]) less(i, j int) bool {
	return p.Leq(i, j) && !p.Leq(j, i)
}

// Edges returns the covering relation — the transitive reduction of the
// order, i.e. the edges one would draw in the Hasse diagram / DAG of
// Figure 5. An edge (i, j) means i < j with nothing in between.
func (p *Poset[T]) Edges() [][2]int {
	n := len(p.items)
	w := p.words
	// above[i] holds the items strictly above i; below[j] the items
	// strictly below j. An i < j pair is covered exactly when the two
	// sets intersect.
	above := make([]uint64, n*w)
	below := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && p.less(i, j) {
				above[i*w+(j>>6)] |= 1 << uint(j&63)
				below[j*w+(i>>6)] |= 1 << uint(i&63)
			}
		}
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		ai := bitsetOver(above[i*w:(i+1)*w], n)
		for j := 0; j < n; j++ {
			if i == j || !p.less(i, j) {
				continue
			}
			bj := bitsetOver(below[j*w:(j+1)*w], n)
			if !ai.Intersects(bj) {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return edges
}

// Maximal returns the indices of the maximal elements among the items
// for which keep returns true — the sinks of the filtered DAG (the green
// nodes of Figure 5, the stars of Figure 8).
func (p *Poset[T]) Maximal(keep func(T) bool) []int {
	var out []int
	for i, it := range p.items {
		if !keep(it) {
			continue
		}
		dominated := false
		for j, jt := range p.items {
			if i == j || !keep(jt) {
				continue
			}
			if p.less(i, j) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// Above returns the indices of all items strictly safer than i.
func (p *Poset[T]) Above(i int) []int {
	var out []int
	for j := range p.items {
		if j != i && p.less(i, j) {
			out = append(out, j)
		}
	}
	return out
}

// TopoOrder returns the item indices in a topological order of the
// safety DAG: less-safe items first. The exploration uses it to measure
// in an order where monotonic pruning is sound.
func (p *Poset[T]) TopoOrder() []int {
	n := len(p.items)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range p.Edges() {
		succ[e[0]] = append(succ[e[0]], e[1])
		indeg[e[1]]++
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range succ[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	return order
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
