package poset

import (
	"fmt"
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

// randomField draws a field over n items of one of four shapes: a
// chain, an antichain, a preorder whose values tie in pairs (subset
// order over masks from a narrow universe, so distinct values can
// carry equal masks) and a single value.
func randomField(rng *rand.Rand, n int) (string, Field) {
	shapes := []string{"chain", "antichain", "preorder", "single"}
	shape := shapes[rng.Intn(len(shapes))]
	values := 1 + rng.Intn(8)
	var leq func(x, y int) bool
	switch shape {
	case "chain":
		leq = func(x, y int) bool { return x <= y }
	case "antichain":
		leq = func(x, y int) bool { return x == y }
	case "preorder":
		masks := randomMasks(rng, values, 2)
		leq = func(x, y int) bool { return subsetLeq(masks[x], masks[y]) }
	case "single":
		values = 1
		leq = func(x, y int) bool { return true }
	}
	of := make([]int32, n)
	for i := range of {
		of[i] = int32(rng.Intn(values))
	}
	return shape, Field{Of: of, Values: values, Leq: leq}
}

// TestMeetMatchesPairwise checks Meet against New over the conjunction
// of the same random fields: the relation rows bit for bit, and the
// Hasse edges of the Meet poset against the pairwise reference
// reduction. Item counts straddle word boundaries; zero fields make
// every item equivalent.
func TestMeetMatchesPairwise(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			fields := make([]Field, rng.Intn(6))
			var shapes []string
			for f := range fields {
				var shape string
				shape, fields[f] = randomField(rng, n)
				shapes = append(shapes, shape)
			}
			items := make([]int, n)
			for i := range items {
				items[i] = i
			}
			want := New(items, func(i, j int) bool {
				for _, f := range fields {
					if !f.Leq(int(f.Of[i]), int(f.Of[j])) {
						return false
					}
				}
				return true
			})
			got := Meet(items, fields)
			name := fmt.Sprintf("n=%d seed=%d fields=%v", n, seed, shapes)
			if err := got.CheckOrder(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(got.rows, want.rows) {
				t.Fatalf("%s: Meet rows differ from the pairwise build", name)
			}
			if g, w := got.Edges(), referenceEdges(want); !slices.Equal(g, w) {
				t.Fatalf("%s: Meet edges %v, reference %v", name, g, w)
			}
		}
	}
}
