package explore

import (
	"fmt"

	"flexos/internal/poset"
	"flexos/internal/scenario"
)

// Metrics is the full metric vector a measurement produces; Metric
// selects the dimension a budget is expressed on. Both are aliases of
// the scenario package's types, so scenario workloads plug into the
// engine directly.
type (
	Metrics = scenario.Metrics
	Metric  = scenario.Metric
)

// Measure benchmarks one configuration and returns its performance
// metric (higher is better: requests/s, Gb/s, 1/latency — any metric
// "comparable across configurations and runs", §5). It is the scalar
// form; MeasureMetrics is the multi-metric one.
type Measure func(*Config) (float64, error)

// MeasureMetrics benchmarks one configuration and returns its full
// metric vector (throughput, latency percentiles, peak memory, boot
// cost). The engine constrains and ranks on chosen dimensions and
// carries the whole vector through results, memos and Pareto frontiers.
type MeasureMetrics func(*Config) (Metrics, error)

// Measurement is one labeled poset node.
type Measurement struct {
	Config *Config
	// Perf is the ranking metric's value in natural units (0 when
	// pruned): for the default throughput metric, operations per
	// second; for latency metrics, microseconds; for mem/boot, bytes
	// and cycles.
	Perf float64
	// Metrics is the full metric vector of the measurement (zero when
	// pruned, or when a scalar Measure produced only Perf — then just
	// the throughput dimension is populated).
	Metrics Metrics
	// Evaluated is false when monotonic pruning skipped the run.
	Evaluated bool
	// Pruned is true when a less-safe ancestor already violated a
	// monotone constraint, so this config could not satisfy it either.
	Pruned bool
	// Cached is true when the engine filled the vector from a memo hit
	// or from an identical configuration instead of a fresh run.
	Cached bool
}

// Result is a full exploration outcome.
type Result struct {
	// Measurements holds one entry per configuration, in input order.
	Measurements []Measurement
	// Safest are the indices of the safest feasible configurations —
	// the maximal elements of the constraint-filtered poset (the stars
	// of Figure 8).
	Safest []int
	// Evaluated counts actually-run benchmarks; Total is the space
	// size. Their ratio quantifies the §5 claim that pruning
	// "significantly limits combinatorial explosion".
	Evaluated, Total int
	// MemoHits counts configurations whose value came from the memo or
	// an identical twin within the space instead of a fresh run.
	MemoHits int
	// Measured counts fresh measure-function calls the run spent. In
	// exhaustive runs it equals Evaluated; in budgeted runs it also
	// counts boundary probes whose measurement failed a monotone
	// constraint and was recorded as a prune decision — the currency
	// Request.MeasureBudget caps.
	Measured int
	// Skipped counts configurations the run decided without a value:
	// beyond the measurement budget (budgeted search) or already
	// present in the store (delta re-exploration). Always 0 for
	// exhaustive runs.
	Skipped int
	// Constraints echoes the feasibility conjunction of the run.
	Constraints []Constraint
	// Budget echoes the ranking metric's bound when one of the
	// constraints applies to it (single-budget callers); Metric
	// is the ranking dimension Perf reports.
	Budget float64
	Metric Metric
	// Shard echoes the space slice the run covered (zero: the whole
	// space). Measurements and Total describe only that slice.
	Shard Shard

	// order is the engine's grouped safety order of the explored space
	// (signatures + per-group posets); poset is the flat *Config poset
	// some external consumers want, built lazily from the measurements
	// on first Poset() call — the engine itself never materializes it.
	order *spaceOrder
	poset *poset.Poset[*Config]
}

// Poset returns the safety poset underlying the result. It is built on
// first use (the engine plans over a grouped decomposition instead, so
// most runs never pay for the flat space-wide poset). Not safe for
// concurrent first calls; results are normally consumed from one
// goroutine.
func (r *Result) Poset() *poset.Poset[*Config] {
	if r.poset == nil {
		cfgs := make([]*Config, len(r.Measurements))
		for i := range r.Measurements {
			cfgs[i] = r.Measurements[i].Config
		}
		r.poset = Poset(cfgs)
	}
	return r.poset
}

// Feasible reports whether measurement i was evaluated and satisfies
// every constraint of the run.
func (r *Result) Feasible(i int) bool {
	m := r.Measurements[i]
	return m.Evaluated && meetsAll(r.Constraints, m.Metrics)
}

// SafestConfigs dereferences Result.Safest.
func (r *Result) SafestConfigs() []*Config {
	var out []*Config
	for _, i := range r.Safest {
		out = append(out, r.Measurements[i].Config)
	}
	return out
}

// String summarizes the exploration.
func (r *Result) String() string {
	return fmt.Sprintf("explored %d/%d configurations, %d safest under budget %.0f",
		r.Evaluated, r.Total, len(r.Safest), r.Budget)
}

// DOT renders the exploration result as a Graphviz Hasse diagram:
// node shade encodes performance (black = fastest, like Figure 8),
// double octagons mark the safest feasible configurations, dashed
// nodes were pruned or infeasible.
func (r *Result) DOT(name string) string {
	metric := r.Metric
	if metric == "" {
		metric = scenario.MetricThroughput
	}
	var max float64
	for _, m := range r.Measurements {
		if m.Perf > max {
			max = m.Perf
		}
	}
	stars := make(map[int]bool, len(r.Safest))
	for _, i := range r.Safest {
		stars[i] = true
	}
	return r.Poset().DOT(name, func(i int, c *Config) poset.DOTNode {
		m := r.Measurements[i]
		shade := 0.0
		if max > 0 {
			shade = m.Perf / max
			if !metric.HigherIsBetter() {
				shade = 1 - shade
			}
		}
		return poset.DOTNode{
			Label:  c.Label(),
			Shade:  shade,
			Star:   stars[i],
			Pruned: m.Pruned || (m.Evaluated && !r.Feasible(i)),
		}
	})
}
