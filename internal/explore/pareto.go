package explore

// SafetyLevels grades the poset: a configuration's level is the length
// of the longest chain of strictly-less-safe configurations below it —
// how many strict safety upgrades (partition refinements, hardening
// additions, mechanism/gate/sharing strengthenings) it stacks over a
// minimal configuration of the space. Levels are a scalar safety proxy
// for multi-objective comparison. A frontier over the raw order would
// keep nearly every point, because the §5 monotonicity assumption makes
// safer mostly costlier. It is an assumption, not a law of the
// simulator: ROADMAP's first open item lists the measured exceptions
// (a split that frees a library from a KASan-wrapped heap, two
// mechanisms of equal strength ordered both ways).
func (r *Result) SafetyLevels() []int { return r.safetyOrder().levels() }

// ParetoFront extracts the safety × performance × memory frontier from
// an exploration result: the evaluated configurations not dominated in
// (safety level ↑, throughput ↑, peak simulated memory ↓). Configuration
// a dominates b when it is at a safety level at least as high, at least
// as fast, uses at most as much memory, and is strictly better on at
// least one axis. The frontier is the set of configurations worth
// picking: for every point off it there is another that is as safe, as
// fast and as lean — and better somewhere.
//
// The returned indices are ascending, and — because measurements on the
// deterministic machine are byte-identical across worker counts — the
// frontier is too. Pruned configurations carry no metric vector and are
// excluded; run without pruning (or with a budget nothing misses) to
// rank the full space. Fronts are meaningful within one workload:
// metric vectors of different applications (cross-app spaces) measure
// different operations.
func (r *Result) ParetoFront() []int {
	level := r.SafetyLevels()
	evaluated := make([]int, 0, len(r.Measurements))
	for i := range r.Measurements {
		if r.Measurements[i].Evaluated {
			evaluated = append(evaluated, i)
		}
	}
	dominates := func(i, j int) bool {
		mi, mj := &r.Measurements[i].Metrics, &r.Measurements[j].Metrics
		if level[i] < level[j] || mi.Throughput < mj.Throughput || mi.PeakMemBytes > mj.PeakMemBytes {
			return false
		}
		return level[i] > level[j] ||
			mi.Throughput > mj.Throughput ||
			mi.PeakMemBytes < mj.PeakMemBytes
	}
	var front []int
	for _, i := range evaluated {
		dominated := false
		for _, j := range evaluated {
			if i != j && dominates(j, i) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// ParetoConfigs dereferences ParetoFront.
func (r *Result) ParetoConfigs() []*Config {
	var out []*Config
	for _, i := range r.ParetoFront() {
		out = append(out, r.Measurements[i].Config)
	}
	return out
}
