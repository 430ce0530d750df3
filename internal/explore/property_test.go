package explore_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/poset"
	"flexos/internal/scenario"
)

// Property tests for pruning soundness: on random configuration spaces
// with random safety-monotone measure functions and random budgets, the
// pruning engine must agree exactly with a brute-force oracle that
// measures everything.

// TestPruningSoundnessVsBruteForceOracle is the main property: for
// random spaces, random monotone measures and random budgets, the
// pruning engine at one and at four workers must (a) never prune a
// configuration that would have met the budget, and (b) report exactly
// the safest set the exhaustive oracle derives.
func TestPruningSoundnessVsBruteForceOracle(t *testing.T) {
	floor := func(b float64) []explore.Constraint {
		return []explore.Constraint{explore.BudgetConstraint(scenario.MetricThroughput, b)}
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfgs := exploretest.RandomSpace(rng, 60)
		measure := exploretest.Lift(exploretest.MonotoneMeasure(rng))

		// Brute force: measure everything, no pruning.
		oracle, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space: explore.NewSpace(cfgs), Measure: measure, Workers: 1, Constraints: floor(0)})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		perfs := make([]float64, len(cfgs))
		for i, m := range oracle.Measurements {
			perfs[i] = m.Perf
		}

		order := poset.New(cfgs, explore.Leq)

		// Random budgets: quantiles of the measured distribution plus
		// extremes that prune nothing / everything.
		sorted := append([]float64(nil), perfs...)
		sort.Float64s(sorted)
		budgets := []float64{
			sorted[0] - 1,
			sorted[len(sorted)/4],
			sorted[len(sorted)/2],
			sorted[3*len(sorted)/4],
			sorted[len(sorted)-1] + 1,
		}
		for _, budget := range budgets {
			wantSafest := order.Maximal(poset.BitsetOf(len(cfgs), func(i int) bool {
				return perfs[i] >= budget
			}))
			sort.Ints(wantSafest)

			// A budget above every configuration completes the run and
			// reports it together with ErrNoFeasible.
			run := func(workers int) *explore.Result {
				res, err := explore.Engine{}.Run(context.Background(), explore.Request{
					Space: explore.NewSpace(exploretest.CopySpace(cfgs)), Measure: measure,
					Workers: workers, Prune: true, Constraints: floor(budget)})
				if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
					t.Fatalf("seed %d budget %v workers %d: %v", seed, budget, workers, err)
				}
				return res
			}
			seq, par := run(1), run(4)
			for name, res := range map[string]*explore.Result{"sequential": seq, "parallel": par} {
				if !reflect.DeepEqual(res.Safest, wantSafest) {
					t.Fatalf("seed %d budget %v: %s safest %v, oracle %v",
						seed, budget, name, res.Safest, wantSafest)
				}
				for i, m := range res.Measurements {
					if m.Pruned && perfs[i] >= budget {
						t.Fatalf("seed %d budget %v: %s pruned config %d with perf %v >= budget",
							seed, budget, name, i, perfs[i])
					}
					if m.Evaluated && m.Perf != perfs[i] {
						t.Fatalf("seed %d budget %v: %s perf diverges at %d: %v vs %v",
							seed, budget, name, i, m.Perf, perfs[i])
					}
				}
			}
			if seq.Evaluated < par.Evaluated {
				// Twins are deduplicated at every worker count, so the
				// parallel run can never measure more.
				t.Fatalf("seed %d budget %v: parallel measured more (%d) than sequential (%d)",
					seed, budget, par.Evaluated, seq.Evaluated)
			}
		}
	}
}

// TestLeqIsPartialOrderOnRandomSpaces validates the safety relation
// itself on random configuration spaces — the foundation the pruning
// argument rests on.
func TestLeqIsPartialOrderOnRandomSpaces(t *testing.T) {
	for seed := int64(50); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfgs := exploretest.RandomSpace(rng, 50)
		p := poset.New(cfgs, explore.Leq)
		if err := p.CheckOrder(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Antisymmetry up to canonical identity: mutual order implies
		// the same canonical key.
		for i := range cfgs {
			for j := range cfgs {
				if i != j && p.Leq(i, j) && p.Leq(j, i) && cfgs[i].Key() != cfgs[j].Key() {
					t.Fatalf("seed %d: configs %d and %d mutually ordered with distinct keys\n%s\n%s",
						seed, i, j, cfgs[i].Key(), cfgs[j].Key())
				}
			}
		}
	}
}
