package poset

import (
	"math/rand"
	"slices"
	"testing"
)

// referenceEdges is the pairwise transitive reduction Edges replaced:
// two strict-order tests per ordered pair fill "strictly above" and
// "strictly below" matrices, and i < j is a cover exactly when nothing
// is both above i and below j. It stays here as the oracle of the
// word-at-a-time reduction.
func referenceEdges[T any](p *Poset[T]) [][2]int {
	n, w := len(p.items), p.words
	less := func(i, j int) bool { return p.Leq(i, j) && !p.Leq(j, i) }
	above := make([]uint64, n*w)
	below := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && less(i, j) {
				above[i*w+(j>>6)] |= 1 << uint(j&63)
				below[j*w+(i>>6)] |= 1 << uint(i&63)
			}
		}
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		ai := bitsetOver(above[i*w:(i+1)*w], n)
		for j := 0; j < n; j++ {
			if i == j || !less(i, j) {
				continue
			}
			if !ai.Intersects(bitsetOver(below[j*w:(j+1)*w], n)) {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return edges
}

// randomMasks draws n masks over a universe of the given bit width;
// a narrow universe repeats masks, which the subset order makes
// equivalent items.
func randomMasks(rng *rand.Rand, n, width int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(rng.Intn(1 << width))
	}
	return out
}

// TestEdgesMatchReferenceEdges compares the word-at-a-time reduction
// with the pairwise one on random partial orders (distinct masks,
// divisibility) and on preorders with equivalent items (repeated
// masks), at sizes that straddle word boundaries.
func TestEdgesMatchReferenceEdges(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 130} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(n)))
			orders := map[string]func() ([][2]int, [][2]int){
				"distinct": func() ([][2]int, [][2]int) {
					p := New(distinctMasks(rng, n), subsetLeq)
					return p.Edges(), referenceEdges(p)
				},
				"preorder": func() ([][2]int, [][2]int) {
					p := New(randomMasks(rng, n, 5), subsetLeq)
					return p.Edges(), referenceEdges(p)
				},
				"divides": func() ([][2]int, [][2]int) {
					items := make([]int, n)
					for i := range items {
						items[i] = rng.Intn(300) + 1
					}
					p := New(items, divides)
					return p.Edges(), referenceEdges(p)
				},
			}
			for _, name := range []string{"distinct", "preorder", "divides"} {
				got, want := orders[name]()
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d seed=%d: Edges %v, reference %v", name, n, seed, got, want)
				}
			}
		}
	}
}

// TestProductMatchesPairwise builds random full products of two
// preorders, with the items in a random order, and checks that Product
// agrees with New over the product relation on every relation bit and
// on the Hasse edges, byte for byte including their order.
func TestProductMatchesPairwise(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		na, nb := rng.Intn(40)+1, rng.Intn(6)+1
		a := New(randomMasks(rng, na, 4+rng.Intn(4)), subsetLeq)
		b := New(randomMasks(rng, nb, 3), subsetLeq)
		perm := rng.Perm(na * nb)
		aOf := make([]int32, na*nb)
		bOf := make([]int32, na*nb)
		items := make([]int, na*nb)
		for c, i := range perm {
			aOf[i], bOf[i], items[i] = int32(c/nb), int32(c%nb), i
		}
		leq := func(i, j int) bool { return a.Leq(int(aOf[i]), int(aOf[j])) && b.Leq(int(bOf[i]), int(bOf[j])) }
		want := New(items, leq)
		got := Product(items, a, aOf, b, bOf)
		if !slices.Equal(got.rows, want.rows) {
			t.Fatalf("seed %d (%d×%d): Product rows differ from the pairwise build", seed, na, nb)
		}
		if g, w := got.Edges(), want.Edges(); !slices.Equal(g, w) {
			t.Fatalf("seed %d (%d×%d): Product edges %v, pairwise %v", seed, na, nb, g, w)
		}
	}
}

// TestProductRejectsPartialProducts checks that Product refuses items
// that do not fill the product exactly once.
func TestProductRejectsPartialProducts(t *testing.T) {
	a := New([]int{1, 2}, divides)
	b := New([]int{1, 3}, divides)
	for name, coords := range map[string][2][]int32{
		"missing":   {{0, 0, 1}, {0, 1, 0}},
		"duplicate": {{0, 0, 1, 1}, {0, 0, 0, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Product accepted coordinates %v", name, coords)
				}
			}()
			Product(make([]int, len(coords[0])), a, coords[0], b, coords[1])
		}()
	}
}
