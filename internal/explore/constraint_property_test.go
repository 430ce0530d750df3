package explore_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
)

// Property tests for multi-constraint semantics: feasibility under
// several simultaneous constraints must be the intersection of the
// single-constraint feasible sets, and pruning must stay sound with
// mixed floor/ceiling constraints — all verified against the
// exploretest brute-force (exhaustive, unpruned) oracle on random
// spaces.

// TestMultiConstraintIsIntersection: for random spaces and random
// constraint pairs A, B, the feasible set of Constrain(A).Constrain(B)
// equals the intersection of the single-constraint feasible sets, and
// the engine's Safest equals the constraint-filtered maximal elements
// derived from the brute-force oracle.
func TestMultiConstraintIsIntersection(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfgs := exploretest.RandomSpace(rng, 50)
		measure := exploretest.VectorMeasure(rng)

		oracle, err := explore.Engine{}.Run(context.Background(), explore.Request{Space: explore.NewSpace(cfgs), Measure: measure})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		a := exploretest.RandomConstraint(rng, oracle)
		b := exploretest.RandomConstraint(rng, oracle)

		run := func(cs ...explore.Constraint) *explore.Result {
			res, err := explore.Engine{}.Run(context.Background(), explore.Request{
				Space: explore.NewSpace(exploretest.CopySpace(cfgs)), Measure: measure, Constraints: cs, Workers: 4})
			if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
				t.Fatalf("seed %d %v: %v", seed, cs, err)
			}
			return res
		}
		resA, resB, resAB := run(a), run(b), run(a, b)

		setA := exploretest.FeasibleSet(oracle, []explore.Constraint{a})
		setB := exploretest.FeasibleSet(oracle, []explore.Constraint{b})
		for i := range cfgs {
			wantA, wantB := setA[i], setB[i]
			if resA.Feasible(i) != wantA || resB.Feasible(i) != wantB {
				t.Fatalf("seed %d: config %d single-constraint feasibility diverges from oracle", seed, i)
			}
			if got, want := resAB.Feasible(i), wantA && wantB; got != want {
				t.Fatalf("seed %d: config %d: Feasible(A∧B)=%t, intersection=%t (A=%v B=%v)",
					seed, i, got, want, a, b)
			}
		}
		// Safest must be the maximal elements of the intersection.
		wantSafest := exploretest.SafestUnder(oracle, []explore.Constraint{a, b})
		if !reflect.DeepEqual(resAB.Safest, wantSafest) {
			t.Fatalf("seed %d: safest %v, oracle %v (A=%v B=%v)", seed, resAB.Safest, wantSafest, a, b)
		}
	}
}

// TestMixedConstraintPruningSoundVsBruteForce: with pruning enabled and
// a mix of natural (prunable) and unnatural constraints, the engine
// must (a) never prune a configuration the oracle deems feasible,
// (b) report exactly the oracle's safest set, and (c) agree with
// itself byte-for-byte across worker counts.
func TestMixedConstraintPruningSoundVsBruteForce(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfgs := exploretest.RandomSpace(rng, 50)
		measure := exploretest.VectorMeasure(rng)

		oracle, err := explore.Engine{}.Run(context.Background(), explore.Request{Space: explore.NewSpace(cfgs), Measure: measure})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		ncons := rng.Intn(3) + 1
		var cs []explore.Constraint
		for i := 0; i < ncons; i++ {
			cs = append(cs, exploretest.RandomConstraint(rng, oracle))
		}
		feas := exploretest.FeasibleSet(oracle, cs)
		wantSafest := exploretest.SafestUnder(oracle, cs)

		var wantRender string
		for _, workers := range []int{1, 4, 8} {
			res, err := explore.Engine{}.Run(context.Background(), explore.Request{
				Space: explore.NewSpace(exploretest.CopySpace(cfgs)), Measure: measure, Constraints: cs,
				Workers: workers, Prune: true})
			if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			for i, m := range res.Measurements {
				if m.Pruned && feas[i] {
					t.Fatalf("seed %d workers %d: pruned feasible config %d under %v",
						seed, workers, i, cs)
				}
				if m.Evaluated && m.Metrics != oracle.Measurements[i].Metrics {
					t.Fatalf("seed %d workers %d: config %d vector diverges from oracle", seed, workers, i)
				}
			}
			if !reflect.DeepEqual(res.Safest, wantSafest) {
				t.Fatalf("seed %d workers %d: safest %v, oracle %v under %v",
					seed, workers, res.Safest, wantSafest, cs)
			}
			if wantRender == "" {
				wantRender = exploretest.RenderResult(res)
			} else if d := exploretest.RenderResult(res); d != wantRender {
				t.Fatalf("seed %d workers %d: pruned multi-constraint run not deterministic", seed, workers)
			}
		}
	}
}
