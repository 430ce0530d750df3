package scenario

import (
	"fmt"
	"math"
	"math/bits"
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
	b = AppendFixed(b, m.Throughput/1000, 1)
	b = append(b, "k op/s p50="...)
	b = AppendFixed(b, m.P50us, 2)
	b = append(b, "µs p99="...)
	b = AppendFixed(b, m.P99us, 2)
	b = append(b, "µs max="...)
	b = AppendFixed(b, m.MaxUs, 2)
	b = append(b, "µs mem="...)
	b = strconv.AppendUint(b, m.PeakMemBytes, 10)
	b = append(b, "B boot="...)
	b = strconv.AppendUint(b, m.BootCycles, 10)
	b = append(b, "cy"...)
	if m.Survival > 0 {
		b = append(b, " surv="...)
		b = AppendFixed(b, m.Survival, 6)
	}
	return b
}

// pow10 holds 10^p for every precision AppendFixed decides itself.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// AppendFixed appends v with prec digits after the decimal point,
// byte for byte as strconv.AppendFloat(b, v, 'f', prec, 64) does.
// strconv decides an explicit 'f' precision in multiprecision
// arithmetic; AppendFixed decides it exactly in 128-bit integers
// instead. With v = mant·2^e, the digits are mant·10^prec shifted
// right by -e bits, rounded half to even on the exact remainder —
// which is strconv's rounding of the exact binary value. Negative
// values, −0, NaN, ±Inf, precisions above 19 and values whose
// digits do not fit 64 bits take strconv itself.
func AppendFixed(b []byte, v float64, prec int) []byte {
	u := math.Float64bits(v)
	biased := int(u>>52) & 0x7ff
	mant := u & (1<<52 - 1)
	if u>>63 != 0 || biased == 0x7ff || prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	if biased == 0 {
		biased = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	e := biased - 1075 // v = mant·2^e
	var q uint64       // v·10^prec, rounded to an integer
	switch s := -e; {
	case e >= 0:
		// An integer: its digits, then prec zeros.
		if e > 11 {
			return strconv.AppendFloat(b, v, 'f', prec, 64)
		}
		b = strconv.AppendUint(b, mant<<e, 10)
		if prec > 0 {
			b = append(b, '.')
			for range prec {
				b = append(b, '0')
			}
		}
		return b
	case s >= 128:
		// mant·10^prec < 2^117, below half of 2^s: rounds to 0.
	default:
		hi, lo := bits.Mul64(mant, pow10[prec])
		var rhi, rlo, hhi, hlo uint64 // remainder and half of 2^s
		if s >= 64 {
			q = hi >> (s - 64)
			rhi, rlo = hi&(1<<(s-64)-1), lo
			if s == 64 {
				hlo = 1 << 63
			} else {
				hhi = 1 << (s - 65)
			}
		} else {
			if hi>>s != 0 {
				return strconv.AppendFloat(b, v, 'f', prec, 64)
			}
			q = hi<<(64-s) | lo>>s
			rlo, hlo = lo&(1<<s-1), 1<<(s-1)
		}
		if rhi > hhi || rhi == hhi && (rlo > hlo || rlo == hlo && q&1 == 1) {
			if q == math.MaxUint64 {
				return strconv.AppendFloat(b, v, 'f', prec, 64)
			}
			q++
		}
	}
	// q's digits with a point prec places from the right, and at
	// least one digit before it.
	var buf [48]byte
	i := len(buf)
	for range prec {
		i--
		buf[i] = byte('0' + q%10)
		q /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + q%10)
		q /= 10
		if q == 0 {
			break
		}
	}
	return append(b, buf[i:]...)
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
