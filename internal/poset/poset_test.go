package poset

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// divides is a classic partial order on integers.
func divides(a, b int) bool { return b%a == 0 }

func TestDividesPoset(t *testing.T) {
	items := []int{1, 2, 3, 4, 6, 12}
	p := New(items, divides)
	if err := p.CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if !p.Leq(1, 3) { // 2 divides 4
		t.Fatal("2 | 4 expected")
	}
	if p.Leq(1, 2) || p.Leq(2, 1) { // 2 vs 3
		t.Fatal("2 and 3 must be incomparable")
	}
	// Hasse edges: 1-2, 1-3, 2-4, 2-6, 3-6, 4-12, 6-12 (no 1-4 etc.).
	edges := p.Edges()
	has := func(a, b int) bool {
		for _, e := range edges {
			if items[e[0]] == a && items[e[1]] == b {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]int{{1, 2}, {1, 3}, {2, 4}, {2, 6}, {3, 6}, {4, 12}, {6, 12}} {
		if !has(e[0], e[1]) {
			t.Fatalf("missing covering edge %v", e)
		}
	}
	if has(1, 4) || has(1, 12) || has(2, 12) {
		t.Fatal("transitive edge leaked into the reduction")
	}
}

func TestMaximalWithFilter(t *testing.T) {
	items := []int{1, 2, 3, 4, 6, 12}
	p := New(items, divides)
	// Unfiltered: 12 is the unique maximum.
	max := p.Maximal(BitsetOf(len(items), func(int) bool { return true }))
	if len(max) != 1 || items[max[0]] != 12 {
		t.Fatalf("maximal = %v", max)
	}
	// Budget-style filter excluding 12 and 6: maximal become 4 and 3.
	max = p.Maximal(BitsetOf(len(items), func(i int) bool { return items[i] != 12 && items[i] != 6 }))
	var got []int
	for _, i := range max {
		got = append(got, items[i])
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("filtered maximal = %v, want [3 4]", got)
	}
}

func TestAbove(t *testing.T) {
	items := []int{2, 4, 8, 3}
	p := New(items, divides)
	above := p.Above(0) // above 2: 4, 8
	var got []int
	for _, i := range above {
		got = append(got, items[i])
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{4, 8}) {
		t.Fatalf("above(2) = %v", got)
	}
}

func TestCheckOrderRejectsBadRelation(t *testing.T) {
	// "a <= b iff a < b" is not reflexive.
	p := New([]int{1, 2}, func(a, b int) bool { return a < b })
	if err := p.CheckOrder(); err == nil {
		t.Fatal("non-reflexive relation accepted")
	}
}

// Property: Maximal elements are pairwise incomparable, for random
// divisibility posets.
func TestMaximalAntichainProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		seen := map[int]bool{}
		var items []int
		for _, r := range raw {
			v := int(r%50) + 1
			if !seen[v] {
				seen[v] = true
				items = append(items, v)
			}
		}
		if len(items) == 0 {
			return true
		}
		p := New(items, divides)
		max := p.Maximal(BitsetOf(len(items), func(int) bool { return true }))
		for a := 0; a < len(max); a++ {
			for b := a + 1; b < len(max); b++ {
				if p.Leq(max[a], max[b]) || p.Leq(max[b], max[a]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDOTOutput(t *testing.T) {
	items := []int{1, 2, 4}
	p := New(items, divides)
	nodes := make([]DOTNode, len(items))
	for i, v := range items {
		nodes[i] = DOTNode{Label: "v", Shade: float64(v) / 4, Star: v == 4, Pruned: v == 1}
	}
	succs := make([][]int32, len(items))
	for _, e := range p.Edges() {
		succs[e[0]] = append(succs[e[0]], int32(e[1]))
	}
	dot := DOT("lattice", nodes, succs)
	for _, want := range []string{"digraph", "n0 -> n1", "n1 -> n2", "doubleoctagon", "dashed"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, "n0 -> n2") {
		t.Fatalf("DOT draws a non-covering edge:\n%s", dot)
	}
}
