package explore_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/synth"
)

// Property tests for budgeted guided search on synthetic spaces: a
// budgeted run's results are always a subset of the exhaustive
// oracle's, a branch-and-bound sweep that completes within budget is
// byte-identical to the exhaustive pruned run (exact safest set, exact
// Pareto staircase, fraction of the measurements), and for a fixed
// (budget, seed) pair the output is byte-identical across worker
// counts — the headline guarantees of the budgeted modes, all asserted
// through the exploretest harness.

// throughputFloor returns a monotone floor keeping roughly the top
// (1-q) fraction of the space's modeled throughput distribution.
func throughputFloor(res *explore.Result, q float64) explore.Constraint {
	vals := make([]float64, 0, len(res.Measurements))
	for _, m := range res.Measurements {
		vals = append(vals, m.Metrics.Throughput)
	}
	sort.Float64s(vals)
	return explore.BudgetConstraint("", vals[int(q*float64(len(vals)-1))])
}

// exhaustiveOracle measures a synthetic space completely, without
// pruning or constraints — the ground truth every budgeted assertion
// compares against.
func exhaustiveOracle(t *testing.T, seed int64, n int) (*explore.Result, []*explore.Config) {
	t.Helper()
	cfgs := synth.Space(seed, n)
	res, err := explore.Engine{}.Run(context.Background(), explore.Request{
		Space: explore.NewSpace(cfgs), Measure: synth.Measure(seed), Workers: 4,
	})
	if err != nil {
		t.Fatalf("seed %d: oracle: %v", seed, err)
	}
	return res, cfgs
}

// exhaustivePruned runs the unbudgeted pruned engine — the reference a
// completed branch-and-bound sweep must reproduce byte for byte.
func exhaustivePruned(t *testing.T, seed int64, cfgs []*explore.Config, cs []explore.Constraint) *explore.Result {
	t.Helper()
	res, err := explore.Engine{}.Run(context.Background(), explore.Request{
		Space: explore.NewSpace(exploretest.CopySpace(cfgs)), Measure: synth.Measure(seed),
		Constraints: cs, Workers: 4, Prune: true,
	})
	if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
		t.Fatalf("seed %d: exhaustive pruned: %v", seed, err)
	}
	return res
}

func runBudgeted(t *testing.T, seed int64, cfgs []*explore.Config, cs []explore.Constraint, prune bool, budget int, prngSeed int64, workers int) *explore.Result {
	t.Helper()
	res, err := explore.Engine{}.Run(context.Background(), explore.Request{
		Space:         explore.NewSpace(exploretest.CopySpace(cfgs)),
		Measure:       synth.Measure(seed),
		Constraints:   cs,
		Workers:       workers,
		Prune:         prune,
		MeasureBudget: budget,
		Seed:          prngSeed,
	})
	if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
		t.Fatalf("seed %d budget %d workers %d: %v", seed, budget, workers, err)
	}
	return res
}

// TestBudgetedSubsetOfExhaustiveOracle: at every budget — starvation
// included — and in both budgeted modes, a budgeted run reports only
// truths the exhaustive oracle confirms: every evaluated vector equals
// the oracle's, every pruned configuration is infeasible, every
// feasible configuration is in the oracle's feasible set, and the
// budget cap holds as a hard ceiling on fresh measurements.
func TestBudgetedSubsetOfExhaustiveOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 320
		oracle, cfgs := exhaustiveOracle(t, seed, n)
		cs := []explore.Constraint{throughputFloor(oracle, 0.5)}
		oracleFeasible := exploretest.FeasibleSet(oracle, cs)

		for _, prune := range []bool{true, false} {
			for _, budget := range []int{n / 10, n / 4, n} {
				res := runBudgeted(t, seed, cfgs, cs, prune, budget, 42, 4)
				if res.Measured > budget {
					t.Fatalf("seed %d prune %t: measured %d over budget %d", seed, prune, res.Measured, budget)
				}
				d := exploretest.DecisionsOf(res)
				if d.Undecided != res.Skipped {
					t.Fatalf("seed %d prune %t budget %d: %d undecided configs but Skipped=%d", seed, prune, budget, d.Undecided, res.Skipped)
				}
				for i, m := range res.Measurements {
					if m.Evaluated && m.Metrics != oracle.Measurements[i].Metrics {
						t.Fatalf("seed %d prune %t budget %d: config %d vector diverges from oracle", seed, prune, budget, i)
					}
					if m.Pruned && oracleFeasible[i] {
						t.Fatalf("seed %d prune %t budget %d: pruned feasible config %d", seed, prune, budget, i)
					}
					if res.Feasible(i) && !oracleFeasible[i] {
						t.Fatalf("seed %d prune %t budget %d: config %d feasible in budgeted run, infeasible in oracle", seed, prune, budget, i)
					}
				}
			}
		}
	}
}

// TestBudgetedByteIdenticalAcrossWorkers: for a fixed (budget, seed)
// pair the full report — every per-configuration decision, the safest
// set, and the budget counters — is byte-identical at every worker
// count, in both budgeted modes, including under starvation budgets
// where which configurations get measured is decided by the schedule.
func TestBudgetedByteIdenticalAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 4, 8, runtime.GOMAXPROCS(0)}
	for seed := int64(0); seed < 4; seed++ {
		n := 320
		oracle, cfgs := exhaustiveOracle(t, seed, n)
		cs := []explore.Constraint{throughputFloor(oracle, 0.6)}
		for _, prune := range []bool{true, false} {
			for _, budget := range []int{n / 8, n / 2} {
				for _, prngSeed := range []int64{0, 7} {
					var want string
					var wantMeasured, wantSkipped int
					for _, workers := range workerCounts {
						res := runBudgeted(t, seed, cfgs, cs, prune, budget, prngSeed, workers)
						got := exploretest.RenderResult(res)
						if want == "" {
							want, wantMeasured, wantSkipped = got, res.Measured, res.Skipped
							continue
						}
						if got != want {
							t.Fatalf("seed %d prune %t budget %d prng %d workers %d: report diverges from single-worker run\n--- got ---\n%s--- want ---\n%s",
								seed, prune, budget, prngSeed, workers, got, want)
						}
						if res.Measured != wantMeasured || res.Skipped != wantSkipped {
							t.Fatalf("seed %d prune %t budget %d prng %d workers %d: counters (measured %d skipped %d) vs (%d, %d)",
								seed, prune, budget, prngSeed, workers, res.Measured, res.Skipped, wantMeasured, wantSkipped)
						}
					}
				}
			}
		}
	}
}

// TestBudgetedSweepExactWhenBudgetCoversBoundary: the branch-and-bound
// sweep spends measurements only on the feasible region plus its
// minimal infeasible boundary, so as soon as the budget covers exactly
// what the exhaustive pruned run measures, the budgeted run *is* the
// exhaustive pruned run — byte-identical report, exact safest set
// (cross-checked against the brute-force flat-poset oracle), exact
// Pareto staircase and exact feasible front — at a fraction of the
// space. One measurement less, and the cap binds: something is
// skipped.
func TestBudgetedSweepExactWhenBudgetCoversBoundary(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 320
		oracle, cfgs := exhaustiveOracle(t, seed, n)
		cs := []explore.Constraint{throughputFloor(oracle, 0.8)}
		exh := exhaustivePruned(t, seed, cfgs, cs)
		budget := exh.Measured
		if budget >= n {
			t.Fatalf("seed %d: pruning saved nothing (%d of %d)", seed, budget, n)
		}

		res := runBudgeted(t, seed, cfgs, cs, true, budget, 3, 4)
		if res.Measured != budget || res.Skipped != 0 {
			t.Fatalf("seed %d: sweep measured %d skipped %d, want %d measured, none skipped", seed, res.Measured, res.Skipped, budget)
		}
		if got, want := exploretest.RenderResult(res), exploretest.RenderResult(exh); got != want {
			t.Fatalf("seed %d: completed sweep diverges from the exhaustive pruned run\n--- budgeted ---\n%s--- exhaustive ---\n%s", seed, got, want)
		}
		if want := exploretest.SafestUnder(oracle, cs); !reflect.DeepEqual(res.Safest, want) {
			t.Fatalf("seed %d: safest %v, brute-force oracle %v", seed, res.Safest, want)
		}
		if got, want := res.ParetoFront(), exh.ParetoFront(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: front %v, exhaustive pruned front %v", seed, got, want)
		}
		if got, want := exploretest.FeasibleFront(res, cs), exploretest.FeasibleFront(oracle, cs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: feasible front %v, brute-force oracle %v", seed, got, want)
		}

		starved := runBudgeted(t, seed, cfgs, cs, true, budget-1, 3, 4)
		if starved.Measured > budget-1 || starved.Skipped == 0 {
			t.Fatalf("seed %d: budget %d run measured %d, skipped %d — the cap must bind", seed, budget-1, starved.Measured, starved.Skipped)
		}
	}
}

// TestBudgetedAcceptance10k is the acceptance criterion of the
// budgeted-search work: on the 10k-point synthetic space under a
// monotone throughput floor, budgeted mode finds the exact exhaustive
// safest-config set and Pareto front using at most 20% of the
// exhaustive run's measurements (asserted via the Measured counters),
// and is byte-identical at any worker count for the fixed
// (budget, seed).
func TestBudgetedAcceptance10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-point space in -short mode")
	}
	const seed, n, budget = 1, 10_000, 2_000
	oracle, cfgs := exhaustiveOracle(t, seed, n)
	if oracle.Measured != n {
		t.Fatalf("exhaustive run measured %d of %d", oracle.Measured, n)
	}
	cs := []explore.Constraint{throughputFloor(oracle, 0.95)}

	var want string
	var res *explore.Result
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		r := runBudgeted(t, seed, cfgs, cs, true, budget, 11, workers)
		got := exploretest.RenderResult(r)
		if want == "" {
			want, res = got, r
		} else if got != want {
			t.Fatalf("workers %d: budgeted 10k report diverges from single-worker run", workers)
		}
	}

	if res.Measured*5 > oracle.Measured {
		t.Fatalf("budgeted run spent %d measurements; acceptance demands <= 20%% of the exhaustive %d", res.Measured, oracle.Measured)
	}
	if res.Skipped != 0 {
		t.Fatalf("budgeted run skipped %d configs; the budget must cover the full decide", res.Skipped)
	}
	// The completed sweep must be the exhaustive pruned run, byte for
	// byte — exact safest set and exact Pareto staircase included (the
	// 10k flat poset the brute-force oracle would build is quadratic in
	// the space; pruned-vs-brute-force equivalence is proven elsewhere).
	exh := exhaustivePruned(t, seed, cfgs, cs)
	if got := exploretest.RenderResult(exh); got != want {
		t.Fatal("budgeted 10k report diverges from the exhaustive pruned run")
	}
	if !reflect.DeepEqual(res.Safest, exh.Safest) {
		t.Fatalf("safest size %d, exhaustive %d", len(res.Safest), len(exh.Safest))
	}
	if got, wantFront := exploretest.FeasibleFront(res, cs), exploretest.FeasibleFront(oracle, cs); !reflect.DeepEqual(got, wantFront) {
		t.Fatalf("feasible front size %d, brute-force oracle front size %d", len(got), len(wantFront))
	}
}
