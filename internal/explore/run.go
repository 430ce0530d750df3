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

// MeasureMetrics benchmarks one configuration and returns its full
// metric vector (throughput, latency percentiles, peak memory, boot
// cost) — any metric "comparable across configurations and runs", §5.
// The engine constrains and ranks on chosen dimensions and
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
	// pruned; a scalar measure lifted into a vector populates just the
	// throughput dimension).
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

	// space is the explored space (the shard's slice when sharded),
	// which carries its safety order. Engine.Run sets it on every
	// Result.
	space *Space
}

// safetyOrder returns the safety order of the result's configurations.
func (r *Result) safetyOrder() *spaceOrder { return r.space.safetyOrder() }

// MemoKey returns MemoKey(workload, r.Measurements[i].Config), as the
// explored Space rendered it once for the workload.
func (r *Result) MemoKey(workload string, i int) string {
	return r.space.memoKeysOf(workload)[i]
}

// Label returns r.Measurements[i].Config.Label(), as the explored Space
// rendered it once.
func (r *Result) Label(i int) string { return r.space.label(i) }

// SpaceSize returns the number of configurations in the Space the
// result holds on to: the whole space a shard was cut from, else
// Total.
func (r *Result) SpaceSize() int {
	if r.space.base != nil {
		return len(r.space.base.cfgs)
	}
	return len(r.space.cfgs)
}

// Above returns the indices of the configurations strictly safer than
// configuration i (see Leq), ascending.
func (r *Result) Above(i int) []int { return r.safetyOrder().above(i) }

// Feasible reports whether measurement i was evaluated and satisfies
// every constraint of the run.
func (r *Result) Feasible(i int) bool {
	m := &r.Measurements[i]
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
	nodes := make([]poset.DOTNode, len(r.Measurements))
	for i, m := range r.Measurements {
		shade := 0.0
		if max > 0 {
			shade = m.Perf / max
			if !metric.HigherIsBetter() {
				shade = 1 - shade
			}
		}
		nodes[i] = poset.DOTNode{
			Label:  m.Config.Label(),
			Shade:  shade,
			Star:   stars[i],
			Pruned: m.Pruned || (m.Evaluated && !r.Feasible(i)),
		}
	}
	_, succs := r.safetyOrder().edges()
	return poset.DOT(name, nodes, succs)
}
