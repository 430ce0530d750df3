package attack_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"flexos/internal/attack"
	"flexos/internal/cli"
	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/oslib"
	"flexos/internal/scenario"
)

// The differential suite of attack.Measure's image tier: every query
// must come out exactly as it does when each configuration calls the
// base measure itself, while the base runs once per distinct image.

type measureFunc = func(*explore.Config) (scenario.Metrics, error)

// untiered is the reference: attack.Measure without the image tier,
// one base call per configuration.
func untiered(s *attack.Scenario, base measureFunc) measureFunc {
	return func(c *explore.Config) (scenario.Metrics, error) {
		m, err := base(c)
		if err != nil {
			return m, err
		}
		m.Survival = s.Survival(c)
		return m, nil
	}
}

// counting wraps base so n counts its calls.
func counting(base measureFunc, n *atomic.Int64) measureFunc {
	return func(c *explore.Config) (scenario.Metrics, error) {
		n.Add(1)
		return base(c)
	}
}

// metricBits flattens a metric vector into its exact bit pattern.
func metricBits(m scenario.Metrics) [10]uint64 {
	return [10]uint64{
		math.Float64bits(m.Throughput), math.Float64bits(m.P50us), math.Float64bits(m.P99us),
		math.Float64bits(m.MaxUs), m.PeakMemBytes, m.BootCycles, m.Cycles, uint64(m.Ops),
		m.Crossings, math.Float64bits(m.Survival),
	}
}

// sameResult fails the test unless got and want agree on every
// measurement, Safest, the Pareto front and the rendered report.
func sameResult(t *testing.T, name string, got, want *explore.Result, cs []explore.Constraint, pareto bool) {
	t.Helper()
	if got.Evaluated != want.Evaluated || got.MemoHits != want.MemoHits || len(got.Measurements) != len(want.Measurements) {
		t.Fatalf("%s: evaluated/hits/n %d/%d/%d, reference %d/%d/%d", name,
			got.Evaluated, got.MemoHits, len(got.Measurements),
			want.Evaluated, want.MemoHits, len(want.Measurements))
	}
	for i := range got.Measurements {
		g, w := got.Measurements[i], want.Measurements[i]
		if g.Config.Key() != w.Config.Key() || math.Float64bits(g.Perf) != math.Float64bits(w.Perf) ||
			metricBits(g.Metrics) != metricBits(w.Metrics) ||
			g.Pruned != w.Pruned || g.Evaluated != w.Evaluated || g.Cached != w.Cached {
			t.Fatalf("%s: measurement %d differs:\n got  %+v\n want %+v", name, i, g, w)
		}
	}
	if fmt.Sprint(got.Safest) != fmt.Sprint(want.Safest) {
		t.Fatalf("%s: safest %v, reference %v", name, got.Safest, want.Safest)
	}
	if fmt.Sprint(got.ParetoFront()) != fmt.Sprint(want.ParetoFront()) {
		t.Fatalf("%s: pareto front %v, reference %v", name, got.ParetoFront(), want.ParetoFront())
	}
	noFeasible := len(want.Safest) == 0
	g := cli.RenderReport(name, got, cs, true, pareto, true, noFeasible)
	if w := cli.RenderReport(name, want, cs, true, pareto, true, noFeasible); g != w {
		t.Fatalf("%s: report bytes differ:\n%s\n---- reference ----\n%s", name, g, w)
	}
}

// imagesEvaluated counts the distinct image keys among the evaluated
// configurations of a run.
func imagesEvaluated(res *explore.Result) int {
	seen := map[string]bool{}
	for _, m := range res.Measurements {
		if m.Evaluated {
			seen[m.Config.ImageKey()] = true
		}
	}
	return len(seen)
}

// TestTierMatchesUntieredPath runs every attack scenario on both
// machine profiles, pruned and exhaustive, through the untiered
// measure and then through the tiered one at 1 and 8 workers, under a
// prunable throughput floor at the median and a filter-only survival
// floor. The results must be identical, and the tier must call the
// base once per distinct image the run evaluated.
func TestTierMatchesUntieredPath(t *testing.T) {
	base := exploretest.VectorMeasure(rand.New(rand.NewSource(11)))
	fig6 := explore.Fig6Space(fig6Quad)
	for _, sc := range attack.All() {
		for _, profile := range []string{"", "riscv"} {
			cfgs := attack.Space(fig6, attack.Spec{Scenario: sc.Name(), Profile: profile})
			tput := make([]float64, len(cfgs))
			for i, c := range cfgs {
				m, err := base(c)
				if err != nil {
					t.Fatal(err)
				}
				tput[i] = m.Throughput
			}
			sort.Float64s(tput)
			cs := []explore.Constraint{
				explore.BudgetConstraint("", tput[len(tput)/2]),
				explore.BudgetConstraint(scenario.MetricSurvival, 0.5),
			}
			for _, prune := range []bool{true, false} {
				run := func(m measureFunc, workers int) *explore.Result {
					res, err := explore.Engine{}.Run(context.Background(), explore.Request{
						Space:       explore.NewSpace(exploretest.CopySpace(cfgs)),
						Measure:     m,
						Metric:      scenario.MetricSurvival,
						Constraints: cs,
						Workers:     workers,
						Prune:       prune,
					})
					if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
						t.Fatalf("%s@%s prune=%v workers=%d: %v", sc.Name(), profile, prune, workers, err)
					}
					return res
				}
				want := run(untiered(sc, base), 1)
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("%s@%s prune=%v workers=%d", sc.Name(), profile, prune, workers)
					var calls atomic.Int64
					got := run(attack.Measure(sc, counting(base, &calls)), workers)
					sameResult(t, name, got, want, cs, !prune)
					if n := imagesEvaluated(got); int(calls.Load()) != n {
						t.Fatalf("%s: %d base calls for %d evaluated images", name, calls.Load(), n)
					}
					if !prune && calls.Load() != 320 {
						t.Fatalf("%s: exhaustive run made %d base calls, want 320", name, calls.Load())
					}
				}
			}
		}
	}
}

// TestTierFailureMatchesUntieredPath makes the base fail on one image
// and requires the same *MeasureError — ID, key, label and text — from
// the tiered and the untiered measure.
func TestTierFailureMatchesUntieredPath(t *testing.T) {
	sc, _ := attack.ByName("combined")
	cfgs := attack.Space(explore.Fig6Space(fig6Quad), attack.Spec{Scenario: sc.Name(), Profile: "riscv"})
	bad := cfgs[len(cfgs)/2+5].ImageKey()
	ok := exploretest.VectorMeasure(rand.New(rand.NewSource(3)))
	base := func(c *explore.Config) (scenario.Metrics, error) {
		if ik := c.ImageKey(); ik == bad {
			return scenario.Metrics{}, fmt.Errorf("cannot build %s", ik)
		}
		return ok(c)
	}
	for _, prune := range []bool{true, false} {
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("prune=%v workers=%d", prune, workers)
			run := func(m measureFunc) *explore.MeasureError {
				_, err := explore.Engine{}.Run(context.Background(), explore.Request{
					Space:       explore.NewSpace(exploretest.CopySpace(cfgs)),
					Measure:     m,
					Constraints: []explore.Constraint{explore.BudgetConstraint("", 0)},
					Workers:     workers,
					Prune:       prune,
				})
				var me *explore.MeasureError
				if !errors.As(err, &me) {
					t.Fatalf("%s: error %v, want *MeasureError", name, err)
				}
				return me
			}
			got, want := run(attack.Measure(sc, base)), run(untiered(sc, base))
			if got.ID != want.ID || got.Key != want.Key || got.Label != want.Label || got.Error() != want.Error() {
				t.Fatalf("%s: tier error %+v (%v), reference %+v (%v)", name, got, got, want, want)
			}
		}
	}

	// Every configuration of the failing image gets the error from the
	// one base call, not a zero vector.
	var calls atomic.Int64
	measure, ref := attack.Measure(sc, counting(base, &calls)), untiered(sc, base)
	siblings := 0
	for _, c := range cfgs {
		if c.ImageKey() != bad {
			continue
		}
		siblings++
		_, err := measure(c)
		_, want := ref(c)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: error %v, reference %v", c.Label(), err, want)
		}
	}
	if siblings != len(attack.Ladder) || calls.Load() != 1 {
		t.Fatalf("failing image: %d configurations, %d base calls; want %d and 1",
			siblings, calls.Load(), len(attack.Ladder))
	}
}

// TestTierOnExploreColdAttackQuery runs the attack query of the
// explore-cold mix — redis-get90 at 240 ops against combined@riscv,
// pruned under the default throughput floor — on the real simulator.
// The tiered run must render the same report as the untiered one and
// as the CLI's own query, and simulate 50 images where the untiered
// path simulates 118 configurations.
func TestTierOnExploreColdAttackQuery(t *testing.T) {
	sc, _ := attack.ByName("combined")
	w, _ := scenario.ByName("redis-get90")
	w = w.WithOps(240)
	quad, _ := w.Quad()
	cfgs := attack.Space(explore.Fig6Space(quad), attack.Spec{Scenario: sc.Name(), Profile: "riscv"})
	tcb := oslib.TCB()
	base := func(c *explore.Config) (scenario.Metrics, error) { return w.Run(c.Spec(tcb)) }
	cs := []explore.Constraint{explore.BudgetConstraint("", 500_000)}
	run := func(m measureFunc) *explore.Result {
		res, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space: explore.NewSpace(exploretest.CopySpace(cfgs)), Measure: m, Constraints: cs, Workers: 2, Prune: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var tiered, plain atomic.Int64
	got := run(attack.Measure(sc, counting(base, &tiered)))
	want := run(untiered(sc, counting(base, &plain)))
	title := "redis-get90 vs combined@riscv"
	sameResult(t, title, got, want, cs, false)
	if tiered.Load() != 50 || plain.Load() != 118 {
		t.Fatalf("simulations: tiered %d, untiered %d; want 50 and 118", tiered.Load(), plain.Load())
	}

	req := cli.Request{Scenario: "redis-get90", Ops: 240, Attack: "combined", Profile: "riscv"}
	q, info, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cliReport, ours := cli.RenderReport(info.Title, res, info.Constraints, true, false, false, false),
		cli.RenderReport(info.Title, got, cs, true, false, false, false); cliReport != ours {
		t.Fatalf("CLI query report differs from the tiered run:\n%s\n---- tiered ----\n%s", cliReport, ours)
	}
}
