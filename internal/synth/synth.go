// Package synth generates deterministic pseudo-random configuration
// spaces — the benchmark anvil for exercising the exploration engine at
// 10k–1M points, two to four orders of magnitude beyond the paper's
// 80–320-point spaces. A synthetic space is structurally faithful to
// the real ones (CrossAppSpace): it is a union of per-application
// sub-spaces, each the cross product of compartmentalization
// strategies, per-component hardening masks and isolation mechanisms,
// with gate and sharing variants mixed in. Configurations of different
// applications are incomparable in the safety order (they share no
// components), which is exactly the group structure production
// cross-application spaces have — and what the engine's grouped poset
// construction exploits.
//
// Everything is a pure function of (seed, n): Space(seed, n) enumerates
// the same n configurations — same IDs, same canonical keys, same
// labels — on every run, platform and Go version, and Measure(seed) is
// a deterministic, allocation-free, safety-monotone metric model over
// those configurations. That determinism is what lets the oracle
// equivalence tests compare engine outputs byte for byte across worker
// counts, shards and cache states.
package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"flexos/internal/explore"
	"flexos/internal/harden"
	"flexos/internal/isolation"
)

// perApp is how many configurations one synthetic application
// contributes per isolation mechanism: the five canonical
// four-component partitions times the 16 per-component hardening
// masks, exactly the Fig6Space shape.
const perApp = 5 * 16

// Space generates a deterministic pseudo-random configuration space of
// exactly n points. The same (seed, n) pair always yields the same
// space; for m <= n, Space(seed, m) is a prefix of Space(seed, n).
// IDs are dense (0..n-1) and every configuration is valid: non-empty
// blocks, four uniquely named components per application, canonical
// mechanism names.
func Space(seed int64, n int) []*explore.Config {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]*explore.Config, 0, n)
	for app := 0; len(cfgs) < n; app++ {
		appendApp(rng, app, n, &cfgs)
	}
	return cfgs
}

// appendApp emits one application's sub-space (up to the n cap): for
// each of the app's mechanisms, the five partitions × 16 hardening
// masks, with seeded gate/sharing choices. The rng is consumed
// identically whether or not the cap truncates the sub-space, which is
// what makes Space(seed, m) a prefix of Space(seed, n).
func appendApp(rng *rand.Rand, app, n int, cfgs *[]*explore.Config) {
	appName := fmt.Sprintf("s%03d.app", app)
	comps := [4]string{
		appName,
		fmt.Sprintf("s%03d.libc", app),
		fmt.Sprintf("s%03d.sched", app),
		fmt.Sprintf("s%03d.net", app),
	}
	// One to three mechanisms per app, always including intel-mpk so
	// every sub-space has the paper's default backend; extra mechanisms
	// deepen the safety poset (none < intel-mpk < vm-ept in strength).
	mechs := []string{"intel-mpk"}
	if rng.Intn(2) == 0 {
		mechs = append(mechs, "vm-ept")
	}
	if rng.Intn(4) == 0 {
		mechs = append(mechs, "none")
	}
	gate := isolation.GateFull
	if rng.Intn(3) == 0 {
		gate = isolation.GateLight
	}
	sharing := isolation.ShareDSS
	switch rng.Intn(4) {
	case 0:
		sharing = isolation.ShareStack
	case 1:
		sharing = isolation.ShareHeap
	}

	partitions := [][][]string{
		{{comps[0], comps[1], comps[2], comps[3]}},
		{{comps[0], comps[1], comps[2]}, {comps[3]}},
		{{comps[0], comps[1], comps[3]}, {comps[2]}},
		{{comps[0], comps[1]}, {comps[2], comps[3]}},
		{{comps[0], comps[1]}, {comps[2]}, {comps[3]}},
	}
	for _, mech := range mechs {
		for _, part := range partitions {
			for mask := 0; mask < 16; mask++ {
				if len(*cfgs) >= n {
					return
				}
				h := make(map[string]harden.Set, 4)
				for bit, comp := range comps {
					if mask&(1<<bit) != 0 {
						h[comp] = harden.NewSet(harden.All)
					}
				}
				*cfgs = append(*cfgs, &explore.Config{
					ID:        len(*cfgs),
					Blocks:    part,
					Hardening: h,
					Mechanism: mech,
					GateMode:  gate,
					Sharing:   sharing,
				})
			}
		}
	}
}

// Measure returns a deterministic metric model over synthetic (or any
// other) configurations: a pure function of the configuration's
// structure and the seed, allocation-free on every call, and monotone
// along the safety order — more compartments, more hardening, stronger
// mechanisms, fuller gates and tighter sharing all raise cost, so
// throughput falls and latency/memory/boot rise as configurations get
// safer, which is the §5 shape monotonic pruning relies on. Per-
// application jitter (a hash of the component names) spreads the
// groups apart without breaking within-group monotonicity.
func Measure(seed int64) explore.MeasureMetrics {
	rng := rand.New(rand.NewSource(seed))
	wComp := float64(rng.Intn(400) + 100)
	wStrength := float64(rng.Intn(600) + 200)
	wGate := float64(rng.Intn(120) + 30)
	wShare := float64(rng.Intn(120) + 30)
	wCFI := float64(rng.Intn(80) + 20)
	wKASan := float64(rng.Intn(200) + 100)
	wUBSan := float64(rng.Intn(120) + 40)
	wSP := float64(rng.Intn(40) + 10)
	return func(c *explore.Config) (explore.Metrics, error) {
		cost := 1000.0 + wComp*float64(len(c.Blocks)-1)
		switch isolation.StrengthOf(c.Mechanism) {
		case isolation.StrengthIntraAS:
			cost += wStrength
		case isolation.StrengthInterAS:
			cost += 2 * wStrength
		}
		multi := len(c.Blocks) > 1
		if multi && c.GateMode != isolation.GateLight {
			cost += wGate
		}
		if multi && c.Sharing != isolation.ShareStack {
			cost += wShare
		}
		var jitter uint64 = 14695981039346656037
		for _, blk := range c.Blocks {
			for _, comp := range blk {
				// FNV-1a over the component name, XOR-combined across
				// components so the jitter is partition-independent —
				// identical for every configuration of one application,
				// which keeps the model monotone within each group.
				var h uint64 = 14695981039346656037
				for i := 0; i < len(comp); i++ {
					h ^= uint64(comp[i])
					h *= 1099511628211
				}
				jitter ^= h
				hs := c.Hardening[comp]
				if hs.Has(harden.CFI) {
					cost += wCFI
				}
				if hs.Has(harden.KASan) {
					cost += wKASan
				}
				if hs.Has(harden.UBSan) {
					cost += wUBSan
				}
				if hs.Has(harden.StackProtector) {
					cost += wSP
				}
			}
		}
		cost *= 1 + float64(jitter%1000)/4000
		mx := explore.Metrics{
			Throughput:   1e9 / cost,
			P50us:        cost / 100,
			P99us:        cost / 40,
			MaxUs:        cost / 10,
			PeakMemBytes: uint64(cost) * 1024,
			BootCycles:   uint64(cost) * 4096,
			Cycles:       uint64(cost) * 100_000,
			Ops:          100,
			Crossings:    uint64(len(c.Blocks)-1) * 1000,
		}
		return mx, nil
	}
}

// MedianThroughput returns the median modeled throughput of a space
// under Measure(seed) — a convenient floor for benchmarks and tests
// that want a budget pruning roughly half the space.
func MedianThroughput(seed int64, cfgs []*explore.Config) float64 {
	return QuantileThroughput(seed, cfgs, 0.5)
}

// QuantileThroughput returns the q-quantile (0 <= q <= 1) of a space's
// modeled throughput distribution under Measure(seed). High quantiles
// make tight monotone floors: a q=0.95 floor keeps roughly the top 5%
// of the space feasible, the regime where branch-and-bound pruning
// pays off most. It measures the space once (cheaply: the model is a
// few hundred ns per point).
func QuantileThroughput(seed int64, cfgs []*explore.Config, q float64) float64 {
	measure := Measure(seed)
	vals := make([]float64, len(cfgs))
	for i, c := range cfgs {
		mx, _ := measure(c)
		vals[i] = mx.Throughput
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	idx := int(q * float64(len(vals)))
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return vals[idx]
}
