package figures

import (
	"context"
	"fmt"
	"strings"

	"flexos/internal/core"
	"flexos/internal/explore"
	"flexos/internal/isolation"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
	"flexos/internal/ramfs"
	"flexos/internal/scenario"
	"flexos/internal/vfs"
)

// ScenarioRow is one scenario of the multi-metric table: the same
// workload measured on an unisolated baseline image and on an image
// whose service component (lwip, or the filesystem pair for SQLite)
// sits in its own MPK+DSS compartment.
type ScenarioRow struct {
	Name     string
	App      string
	Baseline scenario.Metrics
	Isolated scenario.Metrics
}

// scenarioBaselineSpec links every component into one NONE compartment.
func scenarioBaselineSpec(comps []string) core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "comp0",
			Libs: append(oslib.TCB(), comps...),
		}},
	}
}

// scenarioIsolatedSpec isolates the scenario's service component —
// lwip for the network applications, the filesystem pair for SQLite —
// behind full MPK gates with DSS sharing (the paper's partition B
// shape and default backend). The application stays with libc, whose
// helpers touch its private data.
func scenarioIsolatedSpec(app string, comps []string) core.ImageSpec {
	isolated := map[string]bool{netstack.Name: true}
	if app == "sqlite" {
		isolated = map[string]bool{vfs.Name: true, ramfs.Name: true}
	}
	var comp0, comp1 []string
	for _, c := range comps {
		if isolated[c] {
			comp1 = append(comp1, c)
		} else {
			comp0 = append(comp0, c)
		}
	}
	return core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []core.CompSpec{
			{Name: "comp0", Libs: append(oslib.TCB(), comp0...)},
			{Name: "comp1", Libs: comp1},
		},
	}
}

// ScenarioTable measures every scenario of the library on its baseline
// and isolated images, returning the multi-metric comparison behind the
// EXPERIMENTS.md table. Rows are sorted by scenario name (the library's
// order).
func ScenarioTable() ([]ScenarioRow, error) {
	var rows []ScenarioRow
	for _, sc := range scenario.All() {
		comps := sc.Components()
		base, err := sc.Run(scenarioBaselineSpec(comps))
		if err != nil {
			return nil, fmt.Errorf("figures: scenario %s baseline: %w", sc.Name(), err)
		}
		iso, err := sc.Run(scenarioIsolatedSpec(sc.App(), comps))
		if err != nil {
			return nil, fmt.Errorf("figures: scenario %s isolated: %w", sc.Name(), err)
		}
		rows = append(rows, ScenarioRow{Name: sc.Name(), App: sc.App(), Baseline: base, Isolated: iso})
	}
	return rows, nil
}

// FormatScenarios renders the scenario table: absolute metrics for the
// baseline, and the isolated image's overheads on every axis.
func FormatScenarios(rows []ScenarioRow) string {
	var b strings.Builder
	b.WriteString("Multi-metric scenarios: baseline (single compartment) vs service isolated (MPK full+DSS)\n")
	fmt.Fprintf(&b, "%-16s %-12s %-10s %-10s %-10s | %-9s %-9s %-9s %-9s\n",
		"scenario", "base op/s", "p50 µs", "p99 µs", "mem KiB", "tput", "p99", "mem", "boot")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-12.1f %-10.3f %-10.3f %-10.1f | %-9s %-9s %-9s %-9s\n",
			r.Name,
			r.Baseline.Throughput,
			r.Baseline.P50us,
			r.Baseline.P99us,
			float64(r.Baseline.PeakMemBytes)/1024,
			overhead(r.Isolated.Throughput, r.Baseline.Throughput, true),
			overhead(r.Isolated.P99us, r.Baseline.P99us, false),
			overhead(float64(r.Isolated.PeakMemBytes), float64(r.Baseline.PeakMemBytes), false),
			overhead(float64(r.Isolated.BootCycles), float64(r.Baseline.BootCycles), false))
	}
	return b.String()
}

// overhead formats the isolated/baseline change as a signed percentage;
// for higher-is-better metrics a slowdown prints negative.
func overhead(iso, base float64, higherIsBetter bool) string {
	if base == 0 {
		return "n/a"
	}
	pct := (iso - base) / base * 100
	if higherIsBetter {
		pct = -pct // report throughput loss as a positive overhead
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

// FormatPareto renders an exploration result's safety × throughput ×
// memory frontier, one line per configuration in index order, with the
// graded safety level each point sits at.
func FormatPareto(title string, res *explore.Result) string {
	var b strings.Builder
	front := res.ParetoFront()
	levels := res.SafetyLevels()
	fmt.Fprintf(&b, "Pareto frontier (%s): %d of %d configurations\n", title, len(front), res.Total)
	fmt.Fprintf(&b, "%-6s %-55s %-12s %-10s %-10s %-10s\n",
		"level", "config", "op/s", "p99 µs", "mem KiB", "boot cy")
	for _, i := range front {
		m := res.Measurements[i]
		fmt.Fprintf(&b, "%-6d %-55s %-12.1f %-10.3f %-10.1f %-10d\n",
			levels[i], m.Config.Label(), m.Metrics.Throughput, m.Metrics.P99us,
			float64(m.Metrics.PeakMemBytes)/1024, m.Metrics.BootCycles)
	}
	return b.String()
}

// ScenarioPareto explores a scenario's Figure-6 space exhaustively with
// the engine and returns the result for frontier extraction — the
// multi-metric counterpart of Fig8.
func ScenarioPareto(ctx context.Context, name string, workers int) (*explore.Result, error) {
	sc, ok := scenario.ByName(name)
	if !ok {
		return nil, fmt.Errorf("figures: unknown scenario %q", name)
	}
	quad, ok := sc.Quad()
	if !ok {
		return nil, fmt.Errorf("figures: scenario %q has no Fig6 space", name)
	}
	return explore.Engine{}.Run(ctx, explore.Request{
		Space: explore.NewSpace(explore.Fig6Space(quad)),
		Measure: func(c *explore.Config) (scenario.Metrics, error) {
			return sc.Run(c.Spec(oslib.TCB()))
		},
		Metric:  scenario.MetricThroughput,
		Workers: workers,
	})
}

// ScenariosCSV flattens the scenario table for CSV export.
func ScenariosCSV(rows []ScenarioRow) ([]string, [][]string) {
	header := []string{"scenario", "app",
		"base_ops", "base_p50us", "base_p99us", "base_maxus", "base_mem", "base_boot",
		"iso_ops", "iso_p50us", "iso_p99us", "iso_maxus", "iso_mem", "iso_boot"}
	var out [][]string
	f := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, r := range rows {
		out = append(out, []string{
			r.Name, r.App,
			f(r.Baseline.Throughput), f(r.Baseline.P50us), f(r.Baseline.P99us), f(r.Baseline.MaxUs),
			fmt.Sprint(r.Baseline.PeakMemBytes), fmt.Sprint(r.Baseline.BootCycles),
			f(r.Isolated.Throughput), f(r.Isolated.P50us), f(r.Isolated.P99us), f(r.Isolated.MaxUs),
			fmt.Sprint(r.Isolated.PeakMemBytes), fmt.Sprint(r.Isolated.BootCycles),
		})
	}
	return header, out
}
