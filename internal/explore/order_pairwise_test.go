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
	"flexos/internal/synth"
)

// orderViews is everything public the engine derives from a space's
// safety order, read from one exhaustive run.
type orderViews struct {
	dot    string
	levels []int
	safest [][]int // Safest at each floor
	above  [][]int
}

// viewsOf runs space exhaustively and reads its order's views. Safest
// is recomputed at a throughput floor placed at every measured value,
// or, with quantiles set, at that many quantiles of the measured
// values; Above is read only at every measured floor.
func viewsOf(t *testing.T, name string, space *explore.Space, measure explore.MeasureMetrics, quantiles int) orderViews {
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
	if quantiles > 0 {
		q := make([]float64, quantiles)
		for k := range q {
			q[k] = floors[k*(len(floors)-1)/(quantiles-1)]
		}
		floors = q
	}
	v := orderViews{dot: res.DOT(name), levels: res.SafetyLevels()}
	for _, floor := range slices.Compact(floors) {
		v.safest = append(v.safest, explore.SafestOf(space, func(i int) bool {
			return res.Measurements[i].Perf >= floor
		}))
	}
	if quantiles == 0 {
		for i := 0; i < space.Len(); i++ {
			v.above = append(v.above, res.Above(i))
		}
	}
	return v
}

// compareBuilds checks that the per-column and the pairwise build of
// cfgs give the same relation and identical views.
func compareBuilds(t *testing.T, name string, cfgs []*explore.Config, measure explore.MeasureMetrics, quantiles int) {
	t.Helper()
	meet := explore.NewSpace(exploretest.CopySpace(cfgs))
	pairwise := explore.NewPairwiseSpace(exploretest.CopySpace(cfgs))
	if !explore.SameRelation(meet, pairwise) {
		t.Fatalf("%s: per-column relation differs from the pairwise build's", name)
	}
	got, want := viewsOf(t, name, meet, measure, quantiles), viewsOf(t, name, pairwise, measure, quantiles)
	if got.dot != want.dot {
		t.Fatalf("%s: per-column DOT differs from the pairwise build's", name)
	}
	if !reflect.DeepEqual(got.levels, want.levels) {
		t.Fatalf("%s: per-column SafetyLevels %v, pairwise %v", name, got.levels, want.levels)
	}
	for k := range want.safest {
		if !slices.Equal(got.safest[k], want.safest[k]) {
			t.Fatalf("%s: floor %d: per-column Safest %v, pairwise %v", name, k, got.safest[k], want.safest[k])
		}
	}
	for i := range want.above {
		if !slices.Equal(got.above[i], want.above[i]) {
			t.Fatalf("%s: per-column Above(%d) = %v, pairwise %v", name, i, got.above[i], want.above[i])
		}
	}
}

// TestMeetOrderMatchesPairwise is the differential test of the
// per-column safety order: the order each group builds with poset.Meet
// from its clauses' columns must give the same relation, DOT bytes,
// safety levels, safest sets and strictly-safer sets as poset.New over
// leqSig. It runs on every shipped space, on random full products of
// images and ASLR rungs, on random spaces with and without the attack
// axis, on hand-cut slices of the swept attack space, and on the
// 10,000-point synthetic space, whose Safest is compared at 16
// quantile floors.
func TestMeetOrderMatchesPairwise(t *testing.T) {
	measure := exploretest.VectorMeasure(rand.New(rand.NewSource(7)))
	for name, cfgs := range exploretest.ShippedSpaces() {
		compareBuilds(t, name, cfgs, measure, 0)
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		compareBuilds(t, fmt.Sprintf("product/%d", seed),
			exploretest.RandomProductSpace(rng, 20+rng.Intn(60), exploretest.AttackLadder), measure, 0)
		compareBuilds(t, fmt.Sprintf("random/%d", seed), exploretest.RandomSpace(rng, 150), measure, 0)
		compareBuilds(t, fmt.Sprintf("random-attack/%d", seed), exploretest.RandomAttackSpace(rng, 150), measure, 0)
	}

	rng := rand.New(rand.NewSource(42))
	product := exploretest.RandomProductSpace(rng, 40, exploretest.AttackLadder)
	riscv := attack.Space(explore.Fig6Space([4]string{"libredis", "newlib", "uksched", "lwip"}),
		attack.Spec{Scenario: "combined", Profile: "riscv"})
	dup := exploretest.CopySpace(product)
	dup[len(dup)-1] = dup[0]
	cuts := map[string][]*explore.Config{
		"dropped":         slices.Delete(exploretest.CopySpace(product), 17, 18),
		"duplicate":       dup,
		"shard 1/3@riscv": riscv[len(riscv)/3 : 2*len(riscv)/3], // Shard{1, 3}'s slice
	}
	for name, cfgs := range cuts {
		compareBuilds(t, name, cfgs, measure, 0)
	}

	compareBuilds(t, "synth/10000", synth.Space(42, 10000), synth.Measure(42), 16)
}
