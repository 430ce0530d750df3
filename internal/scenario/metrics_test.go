package scenario_test

import (
	"math"
	"strconv"
	"testing"

	"flexos/internal/scenario"
)

// strconvAppend is Metrics.Append rendered with strconv's 'f' mode
// throughout: the oracle AppendFixed must match byte for byte.
func strconvAppend(m scenario.Metrics) []byte {
	b := strconv.AppendFloat(nil, m.Throughput/1000, 'f', 1, 64)
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

// FuzzMetricsAppend holds the report formatter to strconv: AppendFixed
// at the precisions the report uses (1, 2 and 6), and a whole
// Metrics.Append rendering with the value in every float field. The
// seeds are rounding ties (0.125 is exactly halfway at two digits;
// 2.675 and 1.005 sit just below their decimal ties), −0, the smallest
// subnormal, 2^53 and a value past 2^64.
func FuzzMetricsAppend(f *testing.F) {
	for _, v := range []float64{0.125, 2.675, 1.005, math.Copysign(0, -1), 5e-324, 1 << 53, 1e21} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for _, prec := range []int{1, 2, 6} {
			want := strconv.AppendFloat(nil, v, 'f', prec, 64)
			if got := scenario.AppendFixed(nil, v, prec); string(got) != string(want) {
				t.Fatalf("AppendFixed(%v, %d) = %q, strconv %q", v, prec, got, want)
			}
		}
		m := scenario.Metrics{Throughput: v, P50us: v, P99us: v * 3, MaxUs: v / 7, PeakMemBytes: 4096, BootCycles: 99, Survival: v}
		if got, want := m.Append(nil), strconvAppend(m); string(got) != string(want) {
			t.Fatalf("Metrics.Append(%v) = %q, strconv %q", v, got, want)
		}
	})
}

// TestAppendFixedMatchesStrconv compares AppendFixed with strconv over
// seeded random bit patterns and decimal-looking values at every
// precision it decides itself, including the fallback boundaries.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	r := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	for k := 0; k < 100_000; k++ {
		var v float64
		switch k % 3 {
		case 0:
			v = math.Float64frombits(next())
		case 1:
			v = float64(next()%10_000_000) / 1000 // three decimals, like a latency
		default:
			v = math.Ldexp(float64(next()>>11), int(next()%140)-100)
		}
		prec := int(next() % 21)
		want := strconv.AppendFloat(nil, v, 'f', prec, 64)
		if got := scenario.AppendFixed(nil, v, prec); string(got) != string(want) {
			t.Fatalf("AppendFixed(%v [%#x], %d) = %q, strconv %q", v, math.Float64bits(v), prec, got, want)
		}
	}
}
