package explore_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"flexos/internal/attack"
	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
)

// orderViews is everything public the engine derives from a space's
// safety order, read from one exhaustive run.
type orderViews struct {
	dot    string
	levels []int
	safest [][]int // Safest at each floor
	above  [][]int
}

// viewsOf runs space exhaustively and reads its order's views; Safest
// is recomputed at a throughput floor placed at every measured value.
func viewsOf(t *testing.T, name string, space *explore.Space, measure explore.MeasureMetrics) orderViews {
	t.Helper()
	res, err := explore.Engine{}.Run(context.Background(), explore.Request{
		Space: space, Measure: measure, Workers: 2,
	})
	if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
		t.Fatalf("%s: %v", name, err)
	}
	var floors []float64
	for _, m := range res.Measurements {
		floors = append(floors, m.Perf)
	}
	sort.Float64s(floors)
	v := orderViews{dot: res.DOT(name), levels: res.SafetyLevels()}
	for _, floor := range slices.Compact(floors) {
		v.safest = append(v.safest, explore.SafestOf(space, func(i int) bool {
			return res.Measurements[i].Perf >= floor
		}))
	}
	for i := 0; i < space.Len(); i++ {
		v.above = append(v.above, res.Above(i))
	}
	return v
}

// compareBuilds checks that the factored and the pairwise build of cfgs
// give identical views, and returns how many groups were factored.
func compareBuilds(t *testing.T, name string, cfgs []*explore.Config, measure explore.MeasureMetrics) int {
	t.Helper()
	factored := explore.NewSpace(exploretest.CopySpace(cfgs))
	pairwise := explore.NewPairwiseSpace(exploretest.CopySpace(cfgs))
	got, want := viewsOf(t, name, factored, measure), viewsOf(t, name, pairwise, measure)
	if got.dot != want.dot {
		t.Fatalf("%s: factored DOT differs from the pairwise build's", name)
	}
	if !reflect.DeepEqual(got.levels, want.levels) {
		t.Fatalf("%s: factored SafetyLevels %v, pairwise %v", name, got.levels, want.levels)
	}
	for k := range want.safest {
		if !slices.Equal(got.safest[k], want.safest[k]) {
			t.Fatalf("%s: floor %d: factored Safest %v, pairwise %v", name, k, got.safest[k], want.safest[k])
		}
	}
	for i := range want.above {
		if !slices.Equal(got.above[i], want.above[i]) {
			t.Fatalf("%s: factored Above(%d) = %v, pairwise %v", name, i, got.above[i], want.above[i])
		}
	}
	if n := explore.FactoredGroups(pairwise); n != 0 {
		t.Fatalf("%s: pairwise build factored %d groups", name, n)
	}
	return explore.FactoredGroups(factored)
}

// TestFactoredOrderMatchesPairwise is the differential test of the
// factored safety order: on every shipped space and on random full
// products of images and ASLR rungs, the order built from its image
// and ladder factors must show the same DOT bytes, safety levels,
// safest sets and strictly-safer sets as the pairwise build. The swept
// attack spaces and the random products must actually factor; spaces
// that are not full products must fall back to the pairwise build.
func TestFactoredOrderMatchesPairwise(t *testing.T) {
	measure := exploretest.VectorMeasure(rand.New(rand.NewSource(7)))
	for name, cfgs := range exploretest.ShippedSpaces() {
		factored := compareBuilds(t, name, cfgs, measure)
		swept := name == "attack@" || name == "attack@riscv"
		if swept != (factored > 0) {
			t.Errorf("%s: %d groups factored", name, factored)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		cfgs := exploretest.RandomProductSpace(rng, 20+rng.Intn(60), exploretest.AttackLadder)
		if n := compareBuilds(t, fmt.Sprintf("product/%d", seed), cfgs, measure); n != 1 {
			t.Errorf("product/%d: %d groups factored, want 1", seed, n)
		}
	}

	rng := rand.New(rand.NewSource(42))
	product := exploretest.RandomProductSpace(rng, 40, exploretest.AttackLadder)
	riscv := attack.Space(explore.Fig6Space([4]string{"libredis", "newlib", "uksched", "lwip"}),
		attack.Spec{Scenario: "combined", Profile: "riscv"})
	dup := exploretest.CopySpace(product)
	dup[len(dup)-1] = dup[0]
	fallbacks := map[string][]*explore.Config{
		"dropped":         slices.Delete(exploretest.CopySpace(product), 17, 18),
		"duplicate":       dup,
		"shard 1/3@riscv": riscv[len(riscv)/3 : 2*len(riscv)/3], // Shard{1, 3}'s slice
	}
	for name, cfgs := range fallbacks {
		if n := compareBuilds(t, name, cfgs, measure); n != 0 {
			t.Errorf("%s: %d groups factored, want the pairwise build", name, n)
		}
	}
}
