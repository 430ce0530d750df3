package scenario

import (
	"fmt"
	"strconv"
)

// Metrics is the full metric vector one workload run produces. Every
// field is computed from the deterministic simulated machine (cycle
// clock, allocator high-water marks, gate counters), so two runs of the
// same scenario under the same configuration are byte-identical — which
// is what lets the exploration engine memoize vectors and reproduce
// Pareto frontiers exactly across worker counts.
type Metrics struct {
	// Throughput is the primary rate of the scenario in operations per
	// second of simulated time (requests/s, packets/s, queries/s).
	Throughput float64
	// P50us, P99us and MaxUs are per-operation latency percentiles in
	// microseconds, sampled from the machine's cycle clock with the
	// nearest-rank definition. For pipelined or batched scenarios one
	// sample covers one pipeline/transaction batch.
	P50us, P99us, MaxUs float64
	// PeakMemBytes is the high-water mark of simulated memory over the
	// whole run: every compartment's private heap peak, the shared heap
	// peak, and the DSS reservation.
	PeakMemBytes uint64
	// BootCycles is the simulated cost of getting the image to its
	// first served operation: build-time initialization plus the
	// application's setup phase (sockets, preloaded state).
	BootCycles uint64
	// Cycles is the measurement-phase cycle count and Ops the number of
	// primary operations it covers.
	Cycles uint64
	Ops    int
	// Crossings counts cross-compartment gate transitions during
	// measurement.
	Crossings uint64
	// Survival is the configuration's probability of surviving the
	// attack scenario attached to the workload, in [0,1]. It is zero —
	// and omitted from String — for plain performance workloads, so
	// the golden renderings of every pre-attack scenario are unchanged.
	Survival float64
}

// String renders the vector compactly.
func (m Metrics) String() string { return string(m.Append(nil)) }

// Append appends String's rendering to b, e.g. "1234.5k op/s
// p50=1.23µs p99=4.56µs max=7.89µs mem=1024B boot=5678cy", then
// " surv=0.123456" when Survival is set.
func (m Metrics) Append(b []byte) []byte {
	b = strconv.AppendFloat(b, m.Throughput/1000, 'f', 1, 64)
	b = append(b, "k op/s p50="...)
	b = strconv.AppendFloat(b, m.P50us, 'f', 2, 64)
	b = append(b, "µs p99="...)
	b = strconv.AppendFloat(b, m.P99us, 'f', 2, 64)
	b = append(b, "µs max="...)
	b = strconv.AppendFloat(b, m.MaxUs, 'f', 2, 64)
	b = append(b, "µs mem="...)
	b = strconv.AppendUint(b, m.PeakMemBytes, 10)
	b = append(b, "B boot="...)
	b = strconv.AppendUint(b, m.BootCycles, 10)
	b = append(b, "cy"...)
	if m.Survival > 0 {
		b = append(b, " surv="...)
		b = strconv.AppendFloat(b, m.Survival, 'f', 6, 64)
	}
	return b
}

// Metric selects one dimension of a Metrics vector — the axis a
// performance budget is expressed on during exploration (§5 requires
// only a metric "comparable across configurations and runs"; any field
// of the vector qualifies).
type Metric string

// The supported budget metrics.
const (
	// MetricThroughput budgets a minimum operation rate (higher is
	// better). It is the default and matches the paper's req/s budgets.
	MetricThroughput Metric = "throughput"
	// MetricP50, MetricP99 and MetricMax budget a maximum latency
	// percentile in microseconds (lower is better).
	MetricP50 Metric = "p50"
	MetricP99 Metric = "p99"
	MetricMax Metric = "maxlat"
	// MetricPeakMem budgets a maximum simulated memory footprint in
	// bytes (lower is better).
	MetricPeakMem Metric = "mem"
	// MetricBoot budgets a maximum boot cost in cycles (lower is
	// better).
	MetricBoot Metric = "boot"
	// MetricSurvival budgets a minimum probability of surviving an
	// attack scenario (higher is better). Only attack workloads
	// populate it.
	MetricSurvival Metric = "survival"
)

// AllMetrics lists every supported metric, in display order.
func AllMetrics() []Metric {
	return []Metric{MetricThroughput, MetricP50, MetricP99, MetricMax, MetricPeakMem, MetricBoot, MetricSurvival}
}

// ParseMetric resolves a metric name (as used by the -metric CLI flag).
func ParseMetric(s string) (Metric, error) {
	switch Metric(s) {
	case "":
		return MetricThroughput, nil
	case MetricThroughput, MetricP50, MetricP99, MetricMax, MetricPeakMem, MetricBoot, MetricSurvival:
		return Metric(s), nil
	}
	return "", fmt.Errorf("scenario: unknown metric %q (want throughput|p50|p99|maxlat|mem|boot|survival)", s)
}

// Value extracts the metric's dimension from a vector, in natural units
// (op/s, µs, bytes, cycles).
func (m Metric) Value(x Metrics) float64 {
	switch m {
	case MetricP50:
		return x.P50us
	case MetricP99:
		return x.P99us
	case MetricMax:
		return x.MaxUs
	case MetricPeakMem:
		return float64(x.PeakMemBytes)
	case MetricBoot:
		return float64(x.BootCycles)
	case MetricSurvival:
		return x.Survival
	default: // MetricThroughput and the zero value
		return x.Throughput
	}
}

// HigherIsBetter reports the metric's direction: true for rates, false
// for latencies, footprint and boot cost.
func (m Metric) HigherIsBetter() bool {
	switch m {
	case MetricP50, MetricP99, MetricMax, MetricPeakMem, MetricBoot:
		return false
	}
	return true
}

// ImprovesWithSafety reports whether the metric gets better as a
// configuration gets safer. Performance metrics degrade with safety —
// which is what makes a natural-direction constraint on them sound to
// prune with (any safer configuration only does worse). Survival is the
// opposite: safer configurations survive more, so a survival floor must
// never prune the safer region. Constraint.Monotone consults this.
func (m Metric) ImprovesWithSafety() bool {
	return m == MetricSurvival
}

// Meets reports whether value v satisfies the budget: at least the
// budget for higher-is-better metrics, at most the budget otherwise.
func (m Metric) Meets(v, budget float64) bool {
	if m.HigherIsBetter() {
		return v >= budget
	}
	return v <= budget
}

// Unit names the metric's natural unit.
func (m Metric) Unit() string {
	switch m {
	case MetricP50, MetricP99, MetricMax:
		return "µs"
	case MetricPeakMem:
		return "B"
	case MetricBoot:
		return "cycles"
	case MetricSurvival:
		return "p"
	}
	return "op/s"
}
