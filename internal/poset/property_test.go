package poset

import (
	"math/rand"
	"slices"
	"testing"
)

// Property tests over random partially ordered sets. Two generator
// families are used, both partial orders by construction:
//
//   - subset order over random bitmasks (a ≤ b iff a's bits ⊆ b's),
//     the same shape as the hardening lattice;
//   - divisibility order over random positive integers.
//
// The relations are checked for reflexivity, antisymmetry and
// transitivity directly, then the derived structures (Edges, Maximal)
// are checked against their definitions.

// distinctMasks generates n distinct random uint16 bitmasks.
func distinctMasks(rng *rand.Rand, n int) []uint16 {
	seen := map[uint16]bool{}
	var out []uint16
	for len(out) < n {
		m := uint16(rng.Intn(1 << 16))
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

func subsetLeq(a, b uint16) bool { return a&^b == 0 }

func TestRandomSubsetOrderIsPartialOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := distinctMasks(rng, 40)
		p := New(items, subsetLeq)

		if err := p.CheckOrder(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := p.Len()
		for i := 0; i < n; i++ {
			if !p.Leq(i, i) {
				t.Fatalf("seed %d: not reflexive at %d", seed, i)
			}
			for j := 0; j < n; j++ {
				// Antisymmetry: mutual order implies identical items,
				// impossible for distinct masks.
				if i != j && p.Leq(i, j) && p.Leq(j, i) {
					t.Fatalf("seed %d: antisymmetry violated at (%d, %d): %04x vs %04x",
						seed, i, j, items[i], items[j])
				}
				// Transitivity, checked directly against the relation.
				if !p.Leq(i, j) {
					continue
				}
				for k := 0; k < n; k++ {
					if p.Leq(j, k) && !p.Leq(i, k) {
						t.Fatalf("seed %d: transitivity violated at (%d, %d, %d)", seed, i, j, k)
					}
				}
			}
		}
	}
}

func TestRandomDivisibilityOrderIsPartialOrder(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seen := map[int]bool{}
		var items []int
		for len(items) < 30 {
			v := rng.Intn(4000) + 1
			if !seen[v] {
				seen[v] = true
				items = append(items, v)
			}
		}
		p := New(items, func(a, b int) bool { return b%a == 0 })
		if err := p.CheckOrder(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range items {
			for j := range items {
				if i != j && p.Leq(i, j) && p.Leq(j, i) {
					t.Fatalf("seed %d: antisymmetry violated: %d and %d", seed, items[i], items[j])
				}
			}
		}
	}
}

// TestEdgesAreTransitiveReduction checks Edges against the definition
// on random spaces: every edge is a strict relation with nothing in
// between, and every covered strict pair appears.
func TestEdgesAreTransitiveReduction(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := distinctMasks(rng, 30)
		p := New(items, subsetLeq)
		n := p.Len()

		onEdge := map[[2]int]bool{}
		for _, e := range p.Edges() {
			onEdge[e] = true
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || !p.Leq(i, j) {
					if onEdge[[2]int{i, j}] {
						t.Fatalf("seed %d: edge (%d,%d) without strict order", seed, i, j)
					}
					continue
				}
				covered := false
				for k := 0; k < n; k++ {
					if k != i && k != j && p.Leq(i, k) && !p.Leq(k, i) && p.Leq(k, j) && !p.Leq(j, k) {
						covered = true
						break
					}
				}
				if want := !covered; onEdge[[2]int{i, j}] != want {
					t.Fatalf("seed %d: edge (%d,%d) presence %v, want %v",
						seed, i, j, onEdge[[2]int{i, j}], want)
				}
			}
		}
	}
}

// TestMaximalMinimalProperties checks the extremal elements against
// brute force: Maximal under random keep-filters, and the minimal
// elements as Maximal of the dual order.
func TestMaximalMinimalProperties(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := distinctMasks(rng, 35)
		p := New(items, subsetLeq)
		keepSet := map[uint16]bool{}
		for _, it := range items {
			if rng.Intn(2) == 0 {
				keepSet[it] = true
			}
		}
		keep := func(v uint16) bool { return keepSet[v] }

		maximal := map[int]bool{}
		for _, i := range p.Maximal(BitsetOf(len(items), func(i int) bool { return keep(items[i]) })) {
			maximal[i] = true
			if !keep(items[i]) {
				t.Fatalf("seed %d: Maximal returned filtered-out %d", seed, i)
			}
		}
		for i, vi := range items {
			if !keep(vi) {
				if maximal[i] {
					t.Fatalf("seed %d: filtered-out %d marked maximal", seed, i)
				}
				continue
			}
			dominated := false
			for j, vj := range items {
				if i != j && keep(vj) && p.Leq(i, j) && !p.Leq(j, i) {
					dominated = true
					break
				}
			}
			if dominated == maximal[i] {
				t.Fatalf("seed %d: item %d dominated=%v maximal=%v", seed, i, dominated, maximal[i])
			}
		}

		dual := New(items, func(a, b uint16) bool { return subsetLeq(b, a) })
		minimal := map[int]bool{}
		for _, i := range dual.Maximal(BitsetOf(len(items), func(int) bool { return true })) {
			minimal[i] = true
		}
		for i := range items {
			hasBelow := false
			for j := range items {
				if i != j && p.Leq(j, i) && !p.Leq(i, j) {
					hasBelow = true
					break
				}
			}
			if hasBelow == minimal[i] {
				t.Fatalf("seed %d: item %d hasBelow=%v minimal=%v", seed, i, hasBelow, minimal[i])
			}
		}
	}
}

// TestMaximalAndAboveMatchBruteForce checks the row-scanning Maximal
// and Above against their definitions on random preorders: subset
// order over masks drawn from a small universe, so equal masks make
// equivalent items (the engine's identical twins), and sizes that
// straddle word boundaries. The keep filters range from empty to full.
func TestMaximalAndAboveMatchBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130, 200} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			items := make([]uint16, n)
			for i := range items {
				items[i] = uint16(rng.Intn(1 << 7))
			}
			p := New(items, subsetLeq)
			density := rng.Float64()
			keep := BitsetOf(n, func(int) bool { return rng.Float64() < density })

			var want []int
			for i := 0; i < n; i++ {
				if !keep.Test(i) {
					continue
				}
				dominated := false
				for j := 0; j < n; j++ {
					if j != i && keep.Test(j) && subsetLeq(items[i], items[j]) && !subsetLeq(items[j], items[i]) {
						dominated = true
						break
					}
				}
				if !dominated {
					want = append(want, i)
				}
			}
			if got := p.Maximal(keep); !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: Maximal = %v, brute force %v", n, seed, got, want)
			}

			i := rng.Intn(n)
			var above []int
			for j := 0; j < n; j++ {
				if j != i && subsetLeq(items[i], items[j]) && !subsetLeq(items[j], items[i]) {
					above = append(above, j)
				}
			}
			if got := p.Above(i); !slices.Equal(got, above) {
				t.Fatalf("n=%d seed=%d: Above(%d) = %v, brute force %v", n, seed, i, got, above)
			}
		}
	}
}

// TestCheckOrderRejectsNonOrders feeds CheckOrder broken relations and
// expects complaints.
func TestCheckOrderRejectsNonOrders(t *testing.T) {
	items := []int{1, 2, 3}
	if err := New(items, func(a, b int) bool { return a < b }).CheckOrder(); err == nil {
		t.Error("irreflexive relation accepted")
	}
	// Intransitive: 1≤2, 2≤3, but not 1≤3.
	intrans := func(a, b int) bool {
		return a == b || (a == 1 && b == 2) || (a == 2 && b == 3)
	}
	if err := New(items, intrans).CheckOrder(); err == nil {
		t.Error("intransitive relation accepted")
	}
}
