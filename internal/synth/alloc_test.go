package synth

import (
	"context"
	"testing"

	"flexos/internal/explore"
)

// Allocation regression tests for the engine hot path. The contract the
// batch-dispatch engine introduced: the measurement loop performs no
// per-measurement heap allocation — no per-config goroutine, channel
// send payload, or boxed outcome — and the fixed per-config setup cost
// (canonical keys, comparison signatures, group membership) stays
// pinned. AllocsPerRun counts are meaningless under the race detector's
// instrumentation, so these tests skip there.

// allocBudgets pin whole-run allocations per configuration, with
// headroom over the measured ~28 (flat walk) / ~32 (pruned walk) so
// Go-version noise does not flap CI, but far below what reintroducing
// per-config channel dispatch or the space-wide allocating poset build
// would cost.
const (
	flatAllocsPerConfig = 35
	dagAllocsPerConfig  = 42
)

func skipIfRace(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
}

// TestSynthMeasureZeroAllocs pins the metric model at exactly zero
// allocations per call — the property that makes it a usable anvil for
// engine allocation measurements.
func TestSynthMeasureZeroAllocs(t *testing.T) {
	skipIfRace(t)
	cfgs := Space(1, perApp)
	measure := Measure(1)
	for _, c := range []*explore.Config{cfgs[0], cfgs[len(cfgs)/2], cfgs[len(cfgs)-1]} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := measure(c); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("Measure allocates %.1f times per call for %s, want 0", allocs, c.Key())
		}
	}
}

// TestEngineAllocsPerConfig pins the engine's total allocations per
// configuration for the flat and the pruned walk. The pin covers everything —
// canonical keys, signatures, grouped posets, result slices — so it
// bounds setup churn too; the measurement loop's share is separately
// shown to be ~0 by TestMeasurementLoopAllocationFree.
func TestEngineAllocsPerConfig(t *testing.T) {
	skipIfRace(t)
	const n = 2000
	cfgs := Space(1, n)
	measure := Measure(1)
	engine := explore.Engine{}

	// Each run enumerates a fresh Space, so the pin covers the per-space
	// setup a first request pays.
	run := func(req explore.Request) func() {
		return func() {
			req.Space = explore.NewSpace(cfgs)
			if _, err := engine.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	flat := explore.Request{Measure: measure, Workers: 1}
	allocs := testing.AllocsPerRun(3, run(flat))
	if per := allocs / n; per > flatAllocsPerConfig {
		t.Errorf("flat walk: %.2f allocs per config, budget %d", per, flatAllocsPerConfig)
	}

	dag := flat
	dag.Prune = true
	dag.Constraints = []explore.Constraint{explore.BudgetConstraint("throughput", MedianThroughput(1, cfgs))}
	allocs = testing.AllocsPerRun(3, run(dag))
	if per := allocs / n; per > dagAllocsPerConfig {
		t.Errorf("pruned walk: %.2f allocs per config, budget %d", per, dagAllocsPerConfig)
	}
}

// TestMeasurementLoopAllocationFree isolates the per-measurement share
// of the engine's allocations: a cold run (2000 fresh measurements) and
// a warm run over a populated memo (2000 memo hits, zero measurements)
// must allocate the same to within noise. Setup costs are identical in
// both, so any gap is per-measurement churn — the thing the batch
// dispatch exists to eliminate.
func TestMeasurementLoopAllocationFree(t *testing.T) {
	skipIfRace(t)
	const n = 2000
	cfgs := Space(1, n)
	measure := Measure(1)
	engine := explore.Engine{}

	// Both runs share one Space, so neither pays the per-space setup.
	space := explore.NewSpace(cfgs)
	cold := testing.AllocsPerRun(3, func() {
		if _, err := engine.Run(context.Background(), explore.Request{
			Space: space, Measure: measure, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
	})

	memo := explore.NewMemo()
	warmReq := explore.Request{Space: space, Measure: measure, Workers: 1, Memo: memo, Workload: "w"}
	if _, err := engine.Run(context.Background(), warmReq); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(3, func() {
		if _, err := engine.Run(context.Background(), warmReq); err != nil {
			t.Fatal(err)
		}
	})

	// The warm run pays one extra map-lookup path per config inside the
	// memo; allow 2 allocs/config of slack either way, far below the
	// one-goroutine-or-channel-send-per-config signature (≥ 3–5) this
	// test exists to catch.
	diff := cold - warm
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*n {
		t.Errorf("cold run allocates %.0f, warm %.0f: measurement loop churns %.2f allocs per measurement",
			cold, warm, diff/n)
	}
}
