// Package figures regenerates every table and figure of the FlexOS
// paper's evaluation (§6) on the simulated substrate. Each Fig*/Table*
// function runs the corresponding experiment and returns printable rows;
// bench_test.go wraps them in testing.B benchmarks and cmd/flexos-bench
// prints them as text tables. EXPERIMENTS.md records paper-vs-measured
// values produced by these functions.
package figures

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"flexos/internal/explore"
	"flexos/internal/scenario"
)

// ConfigPerf is one measured configuration of the Figure 6 space.
type ConfigPerf struct {
	ID           int
	Label        string
	Compartments int
	Hardened     int
	Perf         float64 // requests/s
}

// Fig6Redis measures the 80-configuration Redis space (Figure 6 top):
// MPK+DSS isolation, 5 partitions x 16 per-component hardening sets.
// Results are sorted by throughput ascending, like the paper's plot.
// ctx bounds the sweep; measurement fans out over workers goroutines
// (<= 0 selects GOMAXPROCS), and results are identical for every count.
func Fig6Redis(ctx context.Context, requests, workers int) ([]ConfigPerf, error) {
	return fig6(ctx, scenario.RedisGet100.WithOps(requests), workers)
}

// Fig6Nginx measures the Nginx half of the space (Figure 6 bottom),
// with Fig6Redis's context and worker semantics.
func Fig6Nginx(ctx context.Context, requests, workers int) ([]ConfigPerf, error) {
	return fig6(ctx, scenario.NginxKeepalive.WithOps(requests), workers)
}

// fig6 sweeps the scenario's space through the engine exhaustively
// (the figure plots every point, so the run carries no constraints and
// nothing prunes), ranking by throughput alone.
func fig6(ctx context.Context, sc *scenario.Scenario, workers int) ([]ConfigPerf, error) {
	quad, _ := sc.Quad()
	cfgs := explore.Fig6Space(quad)
	res, err := explore.Engine{}.Run(ctx, explore.Request{
		Space:   explore.NewSpace(cfgs),
		Measure: throughputOf(sc),
		Workers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	out := make([]ConfigPerf, 0, len(cfgs))
	for _, m := range res.Measurements {
		c := m.Config
		out = append(out, ConfigPerf{
			ID: c.ID, Label: c.Label(),
			Compartments: c.NumCompartments(),
			Hardened:     c.HardenedCount(),
			Perf:         m.Perf,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Perf != out[j].Perf {
			return out[i].Perf < out[j].Perf
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// FormatFig6 renders a Figure 6 series as a text table.
func FormatFig6(app string, rows []ConfigPerf) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (%s): %d configurations, MPK+DSS\n", app, len(rows))
	fmt.Fprintf(&b, "%-6s %-8s %-8s %-12s %s\n", "rank", "comps", "hardened", "req/s", "config")
	for i, r := range rows {
		fmt.Fprintf(&b, "%-6d %-8d %-8d %-12.1fk %s\n", i, r.Compartments, r.Hardened, r.Perf/1000, r.Label)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "spread: %.1fk .. %.1fk req/s (%.2fx)\n",
			rows[0].Perf/1000, rows[len(rows)-1].Perf/1000, rows[len(rows)-1].Perf/rows[0].Perf)
	}
	return b.String()
}

// ScatterPoint is one Figure 7 point: the same configuration's
// normalized performance under Redis (x) and Nginx (y).
type ScatterPoint struct {
	ID           int
	Compartments int
	RedisNorm    float64
	NginxNorm    float64
}

// Fig7 pairs the two Figure 6 datasets into the normalized scatter plot.
func Fig7(redisRows, nginxRows []ConfigPerf) []ScatterPoint {
	byIDr := make(map[int]ConfigPerf, len(redisRows))
	var rMax, nMax float64
	for _, r := range redisRows {
		byIDr[r.ID] = r
		if r.Perf > rMax {
			rMax = r.Perf
		}
	}
	byIDn := make(map[int]ConfigPerf, len(nginxRows))
	for _, n := range nginxRows {
		byIDn[n.ID] = n
		if n.Perf > nMax {
			nMax = n.Perf
		}
	}
	var pts []ScatterPoint
	for id, r := range byIDr {
		n, ok := byIDn[id]
		if !ok {
			continue
		}
		pts = append(pts, ScatterPoint{
			ID: id, Compartments: r.Compartments,
			RedisNorm: r.Perf / rMax, NginxNorm: n.Perf / nMax,
		})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
	return pts
}

// FormatFig7 renders the scatter as text.
func FormatFig7(pts []ScatterPoint) string {
	var b strings.Builder
	b.WriteString("Figure 7: Nginx vs Redis normalized performance\n")
	fmt.Fprintf(&b, "%-6s %-6s %-12s %-12s\n", "cfg", "comps", "redis-norm", "nginx-norm")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-6d %-6d %-12.3f %-12.3f\n", p.ID, p.Compartments, p.RedisNorm, p.NginxNorm)
	}
	return b.String()
}

// Fig8Result is the partial-safety-ordering outcome over the Redis
// space.
type Fig8Result struct {
	Result           *explore.Result
	Budget           float64
	Stars            []ConfigPerf
	Evaluated, Total int
}

// Fig8 applies partial safety ordering to the Redis configuration space
// with the paper's 500k req/s budget: it returns the safest
// configurations meeting the budget (the stars) and how many
// measurements monotonic pruning saved. ctx bounds the exploration;
// workers <= 0 selects GOMAXPROCS.
func Fig8(ctx context.Context, requests int, budget float64, workers int) (*Fig8Result, error) {
	sc := scenario.RedisGet100.WithOps(requests)
	quad, _ := sc.Quad()
	cfgs := explore.Fig6Space(quad)
	res, err := explore.Engine{}.Run(ctx, explore.Request{
		Space:       explore.NewSpace(cfgs),
		Measure:     throughputOf(sc),
		Constraints: []explore.Constraint{explore.BudgetConstraint(scenario.MetricThroughput, budget)},
		Workers:     workers,
		Prune:       true,
	})
	if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
		return nil, err
	}
	out := &Fig8Result{Result: res, Budget: budget, Evaluated: res.Evaluated, Total: res.Total}
	for _, i := range res.Safest {
		m := res.Measurements[i]
		out.Stars = append(out.Stars, ConfigPerf{
			ID: m.Config.ID, Label: m.Config.Label(),
			Compartments: m.Config.NumCompartments(),
			Hardened:     m.Config.HardenedCount(),
			Perf:         m.Perf,
		})
	}
	return out, nil
}

// FormatFig8 renders the exploration outcome.
func FormatFig8(r *Fig8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: Redis configuration poset, budget %.0fk req/s\n", r.Budget/1000)
	fmt.Fprintf(&b, "evaluated %d/%d configurations (monotonic pruning)\n", r.Evaluated, r.Total)
	fmt.Fprintf(&b, "safest configurations under budget (stars): %d\n", len(r.Stars))
	for _, s := range r.Stars {
		fmt.Fprintf(&b, "  * %-50s %8.1fk req/s\n", s.Label, s.Perf/1000)
	}
	return b.String()
}
