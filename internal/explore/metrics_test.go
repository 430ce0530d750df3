package explore

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	redisapp "flexos/internal/apps/redis"

	"flexos/internal/oslib"
	"flexos/internal/poset"
	"flexos/internal/scenario"
)

// scenarioMeasure adapts a library scenario into a MeasureMetrics over
// Fig6Space configurations.
func scenarioMeasure(sc *scenario.Scenario) MeasureMetrics {
	return func(c *Config) (Metrics, error) {
		return sc.Run(c.Spec([]string{oslib.BootName, oslib.MMName}))
	}
}

// syntheticMetrics derives a deterministic, safety-monotone metric
// vector from a configuration's structure: cheap enough for large
// sweeps, and decreasing in throughput (increasing in cost metrics) as
// configurations get safer — matching the engine's pruning assumption.
func syntheticMetrics(c *Config) (Metrics, error) {
	cost := float64(c.NumCompartments()-1)*100 + float64(c.HardenedCount())*17 +
		float64(c.Strength())*250 + float64(c.GateRank())*3 + float64(c.SharingRank())*2
	return Metrics{
		Throughput:   10_000 - cost,
		P50us:        1 + cost/100,
		P99us:        2 + cost/50,
		MaxUs:        3 + cost/25,
		PeakMemBytes: 1000 + uint64(cost)*3,
		BootCycles:   500 + uint64(cost),
		Cycles:       uint64(cost) + 1,
		Ops:          1,
	}, nil
}

// TestMetricVectorsDeterministicAcrossWorkers is the acceptance check of
// the multi-metric engine: every Metrics field and the ParetoFront are
// byte-identical for workers ∈ {1, 4, 8} and match the sequential
// oracle, on a real scenario workload over the Redis Figure-6 space.
func TestMetricVectorsDeterministicAcrossWorkers(t *testing.T) {
	sc, ok := scenario.ByName("redis-get90")
	if !ok {
		t.Fatal("redis-get90 missing")
	}
	sc = sc.WithOps(60)
	measure := scenarioMeasure(sc)
	metric := scenario.MetricP99
	// µs ceiling: tight enough that some configs fail — every one, in
	// fact, so each run reports its full result with ErrNoFeasible.
	budget := 0.6

	mkSpace := func() []*Config { return Fig6Space(redisapp.Components4()) }
	budgeted := []Constraint{BudgetConstraint(metric, budget)}
	oracle, err := Engine{}.Run(context.Background(), Request{Space: mkSpace(), Measure: measure, Metric: metric,
		Workers: 1, Prune: true, Constraints: budgeted})
	if err != nil && !errors.Is(err, ErrNoFeasible) {
		t.Fatal(err)
	}
	if oracle.Evaluated == oracle.Total {
		t.Fatalf("budget %v pruned nothing; tighten the test", budget)
	}
	oracleFront := oracle.ParetoFront()

	for _, workers := range []int{1, 4, 8} {
		res, err := Engine{}.Run(context.Background(), Request{Space: mkSpace(), Measure: measure, Metric: metric,
			Workers: workers, Prune: true, Constraints: budgeted})
		if err != nil && !errors.Is(err, ErrNoFeasible) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Measurements) != len(oracle.Measurements) {
			t.Fatalf("workers=%d: %d measurements, oracle %d", workers, len(res.Measurements), len(oracle.Measurements))
		}
		for i := range res.Measurements {
			got, want := res.Measurements[i], oracle.Measurements[i]
			if got.Metrics != want.Metrics {
				t.Fatalf("workers=%d: config %d metrics diverge:\n got %+v\nwant %+v",
					workers, i, got.Metrics, want.Metrics)
			}
			if got.Perf != want.Perf || got.Evaluated != want.Evaluated || got.Pruned != want.Pruned {
				t.Fatalf("workers=%d: config %d decision diverges: got %+v want %+v",
					workers, i, got, want)
			}
		}
		if !reflect.DeepEqual(res.Safest, oracle.Safest) {
			t.Fatalf("workers=%d: safest %v, oracle %v", workers, res.Safest, oracle.Safest)
		}
		if front := res.ParetoFront(); !reflect.DeepEqual(front, oracleFront) {
			t.Fatalf("workers=%d: front %v, oracle %v", workers, front, oracleFront)
		}
		if res.Metric != metric {
			t.Fatalf("workers=%d: result metric %q", workers, res.Metric)
		}
	}
}

// TestLowerBetterCeilingPruning checks ceiling-budget semantics on a
// cost metric: pruned nodes must all genuinely exceed the ceiling, and
// the safest set must equal the exhaustively-derived one.
func TestLowerBetterCeilingPruning(t *testing.T) {
	for _, metric := range []Metric{scenario.MetricP99, scenario.MetricPeakMem, scenario.MetricBoot} {
		cfgs := CrossAppSpace(nil, redisapp.Components4())
		// A zero ceiling excludes every configuration: the run still
		// measures the whole space and returns it with ErrNoFeasible.
		exhaustive, err := Engine{}.Run(context.Background(), Request{Space: cfgs, Measure: syntheticMetrics,
			Workers: 1, Constraints: []Constraint{BudgetConstraint(metric, 0)}})
		if err != nil && !errors.Is(err, ErrNoFeasible) {
			t.Fatal(err)
		}
		// Ceiling at the median of the metric's values.
		vals := make([]float64, 0, len(cfgs))
		for _, m := range exhaustive.Measurements {
			vals = append(vals, m.Perf)
		}
		budget := median(vals)

		pruned, err := Engine{}.Run(context.Background(), Request{Space: CrossAppSpace(nil, redisapp.Components4()),
			Measure: syntheticMetrics, Prune: true, Constraints: []Constraint{BudgetConstraint(metric, budget)}})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Evaluated == pruned.Total {
			t.Errorf("%s: nothing pruned at median ceiling", metric)
		}
		for i, m := range pruned.Measurements {
			if m.Pruned && metric.Meets(exhaustive.Measurements[i].Perf, budget) {
				t.Errorf("%s: config %d pruned but meets the ceiling (%v <= %v)",
					metric, i, exhaustive.Measurements[i].Perf, budget)
			}
		}
		// Re-filter the exhaustive result with the pruning run's
		// constraint to derive the expected stars.
		exhaustive.Constraints = []Constraint{BudgetConstraint(metric, budget)}
		wantSafest := safest(exhaustive.Poset(), exhaustive)
		if !reflect.DeepEqual(pruned.Safest, wantSafest) {
			t.Errorf("%s: safest %v, exhaustive oracle %v", metric, pruned.Safest, wantSafest)
		}
	}
}

// safest is the pruning test's oracle: the constraint-filtered maximal
// elements of the poset, i.e. the safest configurations whose metric
// vectors satisfy every constraint.
func safest(p *poset.Poset[*Config], res *Result) []int {
	index := make(map[*Config]int, len(res.Measurements))
	for i := range res.Measurements {
		index[res.Measurements[i].Config] = i
	}
	out := p.Maximal(func(c *Config) bool {
		return res.Feasible(index[c])
	})
	sort.Ints(out)
	return out
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// TestMemoCarriesMetricVectors re-runs an exploration against a shared
// memo and requires every vector to come back intact from cache.
func TestMemoCarriesMetricVectors(t *testing.T) {
	memo := NewMemo()
	run := func(metric Metric, budget float64) (*Result, error) {
		return Engine{}.Run(context.Background(), Request{Space: Fig6Space(redisapp.Components4()), Measure: syntheticMetrics,
			Metric: metric, Memo: memo, Workload: "synthetic", Constraints: []Constraint{BudgetConstraint(metric, budget)}})
	}
	first, err := run(scenario.MetricThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := run(scenario.MetricThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Evaluated != 0 || second.MemoHits != second.Total {
		t.Fatalf("second run measured %d fresh (memo hits %d/%d)", second.Evaluated, second.MemoHits, second.Total)
	}
	for i := range second.Measurements {
		if second.Measurements[i].Metrics != first.Measurements[i].Metrics {
			t.Fatalf("config %d: cached vector %+v != original %+v",
				i, second.Measurements[i].Metrics, first.Measurements[i].Metrics)
		}
		if !second.Measurements[i].Cached {
			t.Fatalf("config %d not marked cached", i)
		}
	}
	// A run budgeting on a different metric may share the same memo.
	third, err := run(scenario.MetricPeakMem, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if third.Evaluated != 0 {
		t.Fatalf("metric switch invalidated the memo: %d fresh measurements", third.Evaluated)
	}
}

// TestScalarRunStillWorks pins the scalar measure path: a lifted
// scalar measure agrees at one and many workers, and Perf doubles as
// the throughput dimension.
func TestScalarRunStillWorks(t *testing.T) {
	measure := func(c *Config) (float64, error) {
		m, _ := syntheticMetrics(c)
		return m.Throughput, nil
	}
	cfgs := Fig6Space(redisapp.Components4())
	// No configuration meets this floor: both runs report their full
	// result with ErrNoFeasible.
	floor := []Constraint{BudgetConstraint(scenario.MetricThroughput, 9800)}
	seq, err := Engine{}.Run(context.Background(), Request{Space: Fig6Space(redisapp.Components4()), Measure: lift(measure),
		Workers: 1, Prune: true, Constraints: floor})
	if err != nil && !errors.Is(err, ErrNoFeasible) {
		t.Fatal(err)
	}
	par, err := Engine{}.Run(context.Background(), Request{Space: cfgs, Measure: lift(measure), Prune: true, Constraints: floor})
	if err != nil && !errors.Is(err, ErrNoFeasible) {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Safest, par.Safest) {
		t.Fatalf("scalar engines disagree: %v vs %v", seq.Safest, par.Safest)
	}
	for i := range par.Measurements {
		m := par.Measurements[i]
		if m.Evaluated && m.Metrics.Throughput != m.Perf {
			t.Fatalf("config %d: lifted vector throughput %v != perf %v", i, m.Metrics.Throughput, m.Perf)
		}
	}
	if seq.Metric != scenario.MetricThroughput || par.Metric != scenario.MetricThroughput {
		t.Fatalf("scalar runs must default to the throughput metric, got %q / %q", seq.Metric, par.Metric)
	}
}

// TestParetoFrontProperties verifies frontier soundness on a real
// metric distribution: no frontier point is dominated, every
// non-frontier point is, and pruned points are excluded.
func TestParetoFrontProperties(t *testing.T) {
	res, err := Engine{}.Run(context.Background(), Request{Space: CrossAppSpace(nil, redisapp.Components4()), Measure: syntheticMetrics,
		Constraints: []Constraint{BudgetConstraint(scenario.MetricThroughput, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	front := res.ParetoFront()
	if len(front) == 0 || len(front) == res.Total {
		t.Fatalf("degenerate frontier: %d of %d", len(front), res.Total)
	}
	level := res.SafetyLevels()
	onFront := make(map[int]bool, len(front))
	for _, i := range front {
		onFront[i] = true
	}
	dominates := func(i, j int) bool {
		mi, mj := res.Measurements[i].Metrics, res.Measurements[j].Metrics
		if level[i] < level[j] || mi.Throughput < mj.Throughput || mi.PeakMemBytes > mj.PeakMemBytes {
			return false
		}
		return level[i] > level[j] || mi.Throughput > mj.Throughput || mi.PeakMemBytes < mj.PeakMemBytes
	}
	for i := range res.Measurements {
		dominated := false
		for j := range res.Measurements {
			if i != j && dominates(j, i) {
				dominated = true
				break
			}
		}
		if dominated == onFront[i] {
			t.Fatalf("config %d: dominated=%v but onFront=%v", i, dominated, onFront[i])
		}
	}
	if got := res.ParetoConfigs(); len(got) != len(front) {
		t.Fatalf("ParetoConfigs len %d != front len %d", len(got), len(front))
	}
}

// TestParetoExcludesPruned checks that a pruning run's frontier only
// ranks evaluated configurations.
func TestParetoExcludesPruned(t *testing.T) {
	// The floor excludes every configuration; the run still reports.
	res, err := Engine{}.Run(context.Background(), Request{Space: Fig6Space(redisapp.Components4()), Measure: syntheticMetrics,
		Prune: true, Constraints: []Constraint{BudgetConstraint(scenario.MetricThroughput, 9800)}})
	if err != nil && !errors.Is(err, ErrNoFeasible) {
		t.Fatal(err)
	}
	if res.Evaluated == res.Total {
		t.Fatal("nothing pruned; tighten the budget")
	}
	for _, i := range res.ParetoFront() {
		if !res.Measurements[i].Evaluated {
			t.Fatalf("pruned config %d on the frontier", i)
		}
	}
}
