package machine

import "slices"

// LatencySampler collects per-operation latencies read off the virtual
// cycle clock and reduces them to the percentile statistics the
// multi-metric scenarios report (p50/p99/max). Because every sample is a
// clock delta on the deterministic machine, the distribution — and every
// percentile extracted from it — is byte-identical across runs and
// worker counts.
//
// The zero value is an empty sampler ready to use.
type LatencySampler struct {
	samples []uint64
	sorted  bool
}

// Grow reserves room for n more samples, so a caller that knows how
// many it will record grows the sample buffer once.
func (s *LatencySampler) Grow(n int) { s.samples = slices.Grow(s.samples, n) }

// Reset empties the sampler and keeps its buffer, so a sampler reused
// for the next run grows only past the largest earlier one.
func (s *LatencySampler) Reset() { s.samples, s.sorted = s.samples[:0], false }

// Record adds one latency sample in cycles.
func (s *LatencySampler) Record(cycles uint64) {
	s.samples = append(s.samples, cycles)
	s.sorted = false
}

// Span runs fn and records the cycles it consumed on the clock as one
// sample. The error, if any, is returned without recording.
func (s *LatencySampler) Span(c *Clock, fn func() error) error {
	start := c.Cycles()
	if err := fn(); err != nil {
		return err
	}
	s.Record(c.Cycles() - start)
	return nil
}

// Count returns the number of recorded samples.
func (s *LatencySampler) Count() int { return len(s.samples) }

func (s *LatencySampler) sort() {
	if !s.sorted {
		slices.Sort(s.samples)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile latency in cycles using the
// nearest-rank definition (p in (0, 100]): the smallest sample such that
// at least p% of samples are <= it. It returns 0 when no samples were
// recorded.
func (s *LatencySampler) Percentile(p float64) uint64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	s.sort()
	rank := int(float64(n)*p/100 + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.samples[rank-1]
}

// Max returns the largest sample in cycles (0 when empty).
func (s *LatencySampler) Max() uint64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[len(s.samples)-1]
}

// Micros converts a cycle count into microseconds at the model's CPU
// frequency — the unit the scenario layer reports latency percentiles
// in (the paper's µs-scale request latencies on the Xeon Silver 4114).
func (m CostModel) Micros(cycles uint64) float64 {
	return float64(cycles) / m.FreqHz * 1e6
}
