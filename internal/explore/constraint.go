package explore

import (
	"fmt"
	"strconv"
	"strings"

	"flexos/internal/scenario"
)

// Op is a constraint direction: the comparison a bound applies to.
type Op string

// The two constraint directions.
const (
	// AtLeast keeps configurations whose metric value is >= the bound
	// (a floor — the natural direction for throughput).
	AtLeast Op = ">="
	// AtMost keeps configurations whose metric value is <= the bound
	// (a ceiling — the natural direction for latency, memory and boot).
	AtMost Op = "<="
)

// NaturalOp returns the direction a budget on the metric traditionally
// uses: a floor for higher-is-better metrics, a ceiling otherwise.
func NaturalOp(m Metric) Op {
	if m.HigherIsBetter() {
		return AtLeast
	}
	return AtMost
}

// Constraint is one budget bound of an exploration: the Metric's value
// must satisfy `value Op Bound` for a configuration to be feasible. A
// Request may carry any number of constraints, on any mix of metrics
// and directions; feasibility is their conjunction.
type Constraint struct {
	Metric Metric
	Op     Op
	Bound  float64
}

// BudgetConstraint is the single-budget constraint: a bound on the
// metric in its natural direction. An empty metric selects throughput.
func BudgetConstraint(m Metric, budget float64) Constraint {
	if m == "" {
		m = scenario.MetricThroughput
	}
	return Constraint{Metric: m, Op: NaturalOp(m), Bound: budget}
}

// Meets reports whether a metric vector satisfies the constraint.
func (c Constraint) Meets(mx Metrics) bool {
	v := c.Metric.Value(mx)
	if c.Op == AtMost {
		return v <= c.Bound
	}
	return v >= c.Bound
}

// Monotone reports whether a violation of the constraint propagates up
// the safety order — the condition under which the engine may prune a
// configuration's safer descendants without measuring them. Under the
// §5 monotonicity assumption, rates only fall and costs only rise as
// configurations get safer, so a floor on a higher-is-better metric
// (or a ceiling on a lower-is-better one) that a configuration misses
// is missed by everything above it too. Constraints in the opposite
// direction (say, a throughput ceiling) do not prune: they only filter
// measured configurations.
//
// Metrics that improve with safety (survival) are excluded in both
// directions: a survival floor is violated by *less* safe
// configurations, so propagating the violation upward would prune
// exactly the configurations most likely to satisfy it. Such
// constraints only filter.
func (c Constraint) Monotone() bool {
	return c.Op == NaturalOp(c.Metric) && !c.Metric.ImprovesWithSafety()
}

// String renders the constraint in the CLI's spec syntax, e.g.
// "throughput>=500000" or "p99<=2.5".
func (c Constraint) String() string {
	m := c.Metric
	if m == "" {
		m = scenario.MetricThroughput
	}
	return fmt.Sprintf("%s%s%s", m, c.Op, strconv.FormatFloat(c.Bound, 'g', -1, 64))
}

// ParseConstraint parses the CLI constraint syntax: "metric>=bound" or
// "metric<=bound", with the metric names ParseMetric accepts
// (throughput, p50, p99, maxlat, mem, boot, survival).
func ParseConstraint(s string) (Constraint, error) {
	var op Op
	var i int
	if i = strings.Index(s, string(AtLeast)); i >= 0 {
		op = AtLeast
	} else if i = strings.Index(s, string(AtMost)); i >= 0 {
		op = AtMost
	} else {
		return Constraint{}, fmt.Errorf("explore: constraint %q: want metric>=bound or metric<=bound", s)
	}
	name := strings.TrimSpace(s[:i])
	if name == "" {
		return Constraint{}, fmt.Errorf("explore: constraint %q: missing metric name", s)
	}
	metric, err := scenario.ParseMetric(name)
	if err != nil {
		return Constraint{}, fmt.Errorf("explore: constraint %q: %w", s, err)
	}
	bound, err := strconv.ParseFloat(strings.TrimSpace(s[i+2:]), 64)
	if err != nil {
		return Constraint{}, fmt.Errorf("explore: constraint %q: bad bound: %v", s, err)
	}
	return Constraint{Metric: metric, Op: op, Bound: bound}, nil
}

// meetsAll reports whether a vector satisfies every constraint.
func meetsAll(cs []Constraint, mx Metrics) bool {
	for _, c := range cs {
		if !c.Meets(mx) {
			return false
		}
	}
	return true
}

// failsMonotone reports whether the vector violates any constraint
// whose violation propagates up the safety order (see
// Constraint.Monotone) — the pruning trigger.
func failsMonotone(cs []Constraint, mx Metrics) bool {
	for _, c := range cs {
		if c.Monotone() && !c.Meets(mx) {
			return true
		}
	}
	return false
}
