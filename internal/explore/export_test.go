package explore

// Hooks for the external tests of the factored safety order
// (order_factor_test.go, imagekey_test.go).

// AppendImageKey appends the ImageKey read off a rendered Key.
var AppendImageKey = appendImageKey

// NewPairwiseSpace is NewSpace with every order group built pairwise,
// the factored build's oracle.
func NewPairwiseSpace(cfgs []*Config) *Space {
	s := NewSpace(cfgs)
	s.orderOnce.Do(func() { s.order = newSpaceOrder(cfgs, s.keys, false) })
	return s
}

// FactoredGroups reports how many of the space's order groups were
// built as a product of their images and ASLR values.
func FactoredGroups(s *Space) int { return s.safetyOrder().factored }

// SafestOf returns the maximal configurations of the space among those
// feasible admits, ascending.
func SafestOf(s *Space, feasible func(i int) bool) []int { return s.safetyOrder().safest(feasible) }
