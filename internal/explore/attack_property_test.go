package explore_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/poset"
	"flexos/internal/scenario"
)

// Property tests for the attack axes of the safety order — ASLR as a
// product dimension, machine profiles as incomparable groups,
// ShadowStack-extended hardening — and for survival as a metric whose
// floors filter but never prune. The adversarial oracle is
// exploretest's brute-force reference explorer over random attack-axis
// spaces with an independent additive survival scorer; the engine's
// grouped safety order must reproduce its dominance decisions byte for
// byte at every worker count.

// attackOracle measures a random attack space exhaustively — the
// ground truth for the constrained runs.
func attackOracle(t *testing.T, seed int64, n int) ([]*explore.Config, explore.MeasureMetrics, *explore.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfgs := exploretest.RandomAttackSpace(rng, n)
	measure := exploretest.SurvivalMeasure(rng)
	res, err := explore.Engine{}.Run(context.Background(), explore.Request{
		Space: explore.NewSpace(exploretest.CopySpace(cfgs)), Measure: measure, Workers: 4,
	})
	if err != nil {
		t.Fatalf("seed %d: oracle: %v", seed, err)
	}
	return cfgs, measure, res
}

// TestAttackSpaceLeqIsPartialOrder validates the extended safety
// relation itself: still a partial order, antisymmetric up to
// canonical identity, never comparing across machine profiles, and
// never relating a configuration above one whose ASLR it does not
// dominate.
func TestAttackSpaceLeqIsPartialOrder(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfgs := exploretest.RandomAttackSpace(rng, 50)
		p := poset.New(cfgs, explore.Leq)
		if err := p.CheckOrder(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range cfgs {
			for j := range cfgs {
				if i == j || !p.Leq(i, j) {
					continue
				}
				if cfgs[i].Profile != cfgs[j].Profile {
					t.Fatalf("seed %d: configs %d and %d ordered across profiles %q and %q",
						seed, i, j, cfgs[i].Profile, cfgs[j].Profile)
				}
				if !cfgs[i].ASLR.Leq(cfgs[j].ASLR) {
					t.Fatalf("seed %d: configs %d <= %d but ASLR %s does not dominate %s",
						seed, i, j, cfgs[j].ASLR.String(), cfgs[i].ASLR.String())
				}
				if p.Leq(j, i) && cfgs[i].Key() != cfgs[j].Key() {
					t.Fatalf("seed %d: configs %d and %d mutually ordered with distinct keys\n%s\n%s",
						seed, i, j, cfgs[i].Key(), cfgs[j].Key())
				}
			}
		}
	}
}

// TestAttackSpaceMatchesOracleAtEveryWorkerCount is the headline
// property: on random attack-axis spaces under a monotone throughput
// floor plus a filter-only survival floor, the engine's grouped-poset
// pruned run renders byte-identically to the brute-force reference at
// workers 1, 4 and 8.
func TestAttackSpaceMatchesOracleAtEveryWorkerCount(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		cfgs, measure, oracle := attackOracle(t, seed, 60)
		rng := rand.New(rand.NewSource(seed + 1000))
		cs := []explore.Constraint{
			throughputFloor(oracle, 0.25+rng.Float64()/2),
			exploretest.SurvivalFloor(rng, oracle),
		}
		want := exploretest.Reference(exploretest.CopySpace(cfgs), measure,
			scenario.MetricSurvival, cs, true).Render()
		for _, workers := range []int{1, 4, 8} {
			res, err := explore.Engine{}.Run(context.Background(), explore.Request{
				Space:       explore.NewSpace(exploretest.CopySpace(cfgs)),
				Measure:     measure,
				Metric:      scenario.MetricSurvival,
				Constraints: cs,
				Workers:     workers,
				Prune:       true,
			})
			if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if got := exploretest.RenderResult(res); got != want {
				t.Fatalf("seed %d: workers=%d diverges from oracle\nengine:\n%s\noracle:\n%s",
					seed, workers, got, want)
			}
		}
	}
}

// TestSurvivalFloorFiltersWithoutPruning pins the filter-only contract:
// survival improves with safety, so a violated floor says nothing
// about safer successors. A pruned run whose only constraint is a
// survival floor must evaluate the entire space — zero prunes — and
// still report exactly the oracle's constraint-filtered safest set.
func TestSurvivalFloorFiltersWithoutPruning(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		cfgs, measure, oracle := attackOracle(t, seed, 50)
		rng := rand.New(rand.NewSource(seed))
		floor := exploretest.SurvivalFloor(rng, oracle)
		if floor.Monotone() {
			t.Fatalf("seed %d: survival floor %v claims to be monotone-prunable", seed, floor)
		}
		res, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space:       explore.NewSpace(exploretest.CopySpace(cfgs)),
			Measure:     measure,
			Metric:      scenario.MetricSurvival,
			Constraints: []explore.Constraint{floor},
			Workers:     4,
			Prune:       true,
		})
		if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d := exploretest.DecisionsOf(res)
		if d.Pruned != 0 || d.Undecided != 0 {
			t.Fatalf("seed %d: survival floor pruned %d / left %d undecided; must filter only",
				seed, d.Pruned, d.Undecided)
		}
		want := exploretest.SafestUnder(oracle, []explore.Constraint{floor})
		if !reflect.DeepEqual(res.Safest, want) {
			t.Fatalf("seed %d: safest %v, oracle %v", seed, res.Safest, want)
		}
	}
}
