package explore

import (
	"slices"

	"flexos/internal/poset"
)

// Hooks for the external tests of the safety order
// (order_pairwise_test.go).

// NewPairwiseSpace is NewSpace with every order group built pairwise,
// poset.New over leqSig, the oracle of the per-column build.
func NewPairwiseSpace(cfgs []*Config) *Space {
	s := NewSpace(cfgs)
	s.orderOnce.Do(func() {
		o, sigs := newSpaceOrder(cfgs), sigsOf(cfgs)
		for g, members := range o.groups {
			o.posets[g] = poset.New(members, func(a, b int32) bool { return leqSig(&sigs[a], &sigs[b]) })
		}
		s.order = o
	})
	return s
}

// SameRelation reports whether two spaces over the same configurations
// group them alike and order every pair of each group alike.
func SameRelation(a, b *Space) bool {
	oa, ob := a.safetyOrder(), b.safetyOrder()
	if len(oa.groups) != len(ob.groups) {
		return false
	}
	for g, members := range oa.groups {
		pa, pb := oa.posets[g], ob.posets[g]
		if !slices.Equal(ob.groups[g], members) {
			return false
		}
		for i := range members {
			for j := range members {
				if pa.Leq(i, j) != pb.Leq(i, j) {
					return false
				}
			}
		}
	}
	return true
}

// SafestOf returns the maximal configurations of the space among those
// feasible admits, ascending.
func SafestOf(s *Space, feasible func(i int) bool) []int { return s.safetyOrder().safest(feasible) }
