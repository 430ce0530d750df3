package explore_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/poset"
)

// Property tests for the bitset-frontier engine: the exploretest
// reference explorer — map-backed frontiers over the full allocating
// ReferenceLeq poset, the representation the engine had before bitsets — must
// agree with Engine.Run byte for byte — same measurements, same prune
// decisions, same safest set — on random spaces, random budgets and
// every worker count.

// TestBitsetFrontiersMatchMapFrontierOracle is the frontier property:
// on random spaces with random monotone measures, random budgets and
// every worker count, the bitset-frontier engine's report must be
// byte-identical to the map-frontier oracle's — including which
// configurations were pruned, which were twin-filled, and which are
// safest.
func TestBitsetFrontiersMatchMapFrontierOracle(t *testing.T) {
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfgs := exploretest.RandomSpace(rng, 80)
		scalar := exploretest.MonotoneMeasure(rng)
		measure := exploretest.Lift(scalar)

		perfs := make([]float64, len(cfgs))
		for i, c := range cfgs {
			perfs[i], _ = scalar(c)
		}
		sorted := append([]float64(nil), perfs...)
		sort.Float64s(sorted)
		budgets := []float64{sorted[0] - 1, sorted[len(sorted)/2], sorted[len(sorted)-1] + 1}

		for _, budget := range budgets {
			for _, prune := range []bool{false, true} {
				constraints := []explore.Constraint{explore.BudgetConstraint("throughput", budget)}
				want := exploretest.Reference(cfgs, measure, "throughput", constraints, prune).Render()
				for _, workers := range workerCounts {
					res, err := runForTest(t, cfgs, measure, constraints, workers, prune)
					if err != nil {
						t.Fatalf("seed %d budget %v prune %t workers %d: %v", seed, budget, prune, workers, err)
					}
					if got := exploretest.RenderResult(res); got != want {
						t.Fatalf("seed %d budget %v prune %t workers %d: report diverges from map-frontier oracle\n--- engine ---\n%s--- oracle ---\n%s",
							seed, budget, prune, workers, got, want)
					}
				}
			}
		}
	}
}

func runForTest(t *testing.T, cfgs []*explore.Config, measure explore.MeasureMetrics, constraints []explore.Constraint, workers int, prune bool) (*explore.Result, error) {
	t.Helper()
	res, err := explore.Engine{}.Run(context.Background(), explore.Request{
		Space:       explore.NewSpace(exploretest.CopySpace(cfgs)),
		Measure:     measure,
		Metric:      "throughput",
		Constraints: constraints,
		Workers:     workers,
		Prune:       prune,
	})
	if errors.Is(err, explore.ErrNoFeasible) {
		err = nil
	}
	return res, err
}

// TestSafetyLevelsMatchFlatPoset pins the grouped level computation to
// the definition over the flat space-wide poset: on random spaces the
// engine's SafetyLevels (grouped Hasse edges) must equal the longest
// strict chains of the exploretest.ReferenceLeq poset.
func TestSafetyLevelsMatchFlatPoset(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfgs := exploretest.RandomSpace(rng, 70)
		res, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space: explore.NewSpace(cfgs), Measure: exploretest.Lift(exploretest.MonotoneMeasure(rng)), Workers: 4,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := res.SafetyLevels()
		want := flatLevels(poset.New(cfgs, exploretest.ReferenceLeq))
		if len(got) != len(want) {
			t.Fatalf("seed %d: level lengths %d vs %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: level[%d] = %d, flat poset says %d", seed, i, got[i], want[i])
			}
		}
	}
}
