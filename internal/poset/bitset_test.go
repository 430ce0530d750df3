package poset

import (
	"math/rand"
	"testing"
)

// TestBitsetAgainstMapOracle drives a Bitset and a map[int]bool through
// the same random operation sequence and requires them to agree on
// every query — the same oracle style the exploration engine's frontier
// tests use.
func TestBitsetAgainstMapOracle(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := NewBitset(n)
		oracle := map[int]bool{}
		for step := 0; step < 2000 && n > 0; step++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				b.Set(i)
				oracle[i] = true
			case 1:
				b.Clear(i)
				delete(oracle, i)
			case 2:
				if b.Test(i) != oracle[i] {
					t.Fatalf("n=%d step=%d: Test(%d) = %v, oracle %v", n, step, i, b.Test(i), oracle[i])
				}
			}
		}
		for i := 0; i < n; i++ {
			if b.Test(i) != oracle[i] {
				t.Fatalf("n=%d: final Test(%d) = %v, oracle %v", n, i, b.Test(i), oracle[i])
			}
		}
	}
}

func TestBitsetSetOps(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	a.Set(3)
	a.Set(70)
	b.Set(70)
	if !a.Intersects(b) {
		t.Fatal("a and b share 70 but Intersects is false")
	}
	if !a.ContainsAll(b) {
		t.Fatal("b ⊆ a but ContainsAll is false")
	}
	if b.ContainsAll(a) {
		t.Fatal("a ⊄ b but ContainsAll is true")
	}
	b.Clear(70)
	if a.Intersects(b) {
		t.Fatal("disjoint sets report Intersects")
	}
}
