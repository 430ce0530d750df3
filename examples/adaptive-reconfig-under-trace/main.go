// Adaptive-reconfig-under-trace drives the §7 "As Secure as You Can
// Afford" policy from a measured traffic trace instead of a
// hand-written day table (compare examples/adaptive-security, which
// this extends). A synthesized diurnal trace — the same shape CI
// replays with flexos-loadgen — provides the phase schedule: each
// phase carries its own arrival rate and scenario mix, and the
// operator deploys, per phase, the safest Redis configuration whose
// measured throughput covers that phase's demand.
//
// The demand model normalizes phase arrival rates onto the service's
// capacity envelope: the busiest phase is provisioned at 90% of the
// fastest configuration's measured throughput, quieter phases
// proportionally less. Night traffic therefore buys full hardening;
// the flash crowd sheds exactly as much protection as it must.
//
// Run with: go run ./examples/adaptive-reconfig-under-trace
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"flexos"
	"flexos/internal/trace"
)

func main() {
	const requests = 250

	// The trace: 60 seconds of the diurnal shape, seed-pinned so this
	// example prints the same report on every machine. flexos-loadgen
	// -synth diurnal -seed 42 replays the identical event sequence
	// against a live cluster.
	tr, err := trace.Synthesize(trace.DiurnalSpec(42, 60_000))
	if err != nil {
		log.Fatal(err)
	}

	// Measure the design space once, offline and unconstrained; every
	// phase decision below re-ranks these numbers without re-measuring.
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	// Redis GET throughput, as the redis-get100 scenario measures it.
	get, _ := flexos.ScenarioByName("redis-get100")
	get = get.WithOps(requests)
	measure := func(c *flexos.ExploreConfig) (float64, error) {
		m, err := get.Run(c.Spec(flexos.TCBLibs()))
		return m.Throughput, err
	}
	ctx := context.Background()
	offline, err := flexos.NewQuery(cfgs).MeasureScalar(measure).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	peakCapacity := 0.0
	for _, m := range offline.Measurements {
		if m.Perf > peakCapacity {
			peakCapacity = m.Perf
		}
	}

	// Per-phase arrival rates straight from the trace's timestamps.
	type phaseLoad struct {
		name       string
		first, end int64 // ms of trace time
		events     int
	}
	var phases []*phaseLoad
	byName := map[string]*phaseLoad{}
	for _, ev := range tr.Events {
		ph, ok := byName[ev.Phase]
		if !ok {
			ph = &phaseLoad{name: ev.Phase, first: ev.AtMs}
			byName[ev.Phase] = ph
			phases = append(phases, ph)
		}
		ph.events++
		ph.end = ev.AtMs
	}
	peakRate := 0.0
	rate := func(ph *phaseLoad) float64 {
		span := ph.end - ph.first
		if span <= 0 {
			span = 1000
		}
		return float64(ph.events) * 1000 / float64(span)
	}
	for _, ph := range phases {
		if r := rate(ph); r > peakRate {
			peakRate = r
		}
	}

	fmt.Printf("trace %q: %d events over %.0fs in %d phases; peak capacity %.0fk req/s\n\n",
		tr.Name, len(tr.Events), float64(tr.DurationMs())/1000, len(phases), peakCapacity/1000)
	fmt.Println("phase      window        rate     demand   deployed configuration                              sustains")
	for _, ph := range phases {
		// Busiest phase → 90% of peak capacity; others proportional.
		demand := rate(ph) / peakRate * 0.9 * peakCapacity
		best, err := flexos.NewQuery(cfgs).
			MeasureScalar(func(c *flexos.ExploreConfig) (float64, error) {
				return offline.Measurements[c.ID].Perf, nil // reuse offline numbers
			}).
			Floor(flexos.MetricThroughput, demand).
			Run(ctx)
		if err != nil && !errors.Is(err, flexos.ErrNoFeasible) {
			log.Fatal(err)
		}
		if len(best.Safest) == 0 {
			fmt.Printf("%-9s %3d-%3ds  %5.1f/s  %6.0fk  no configuration sustains this demand\n",
				ph.name, ph.first/1000, ph.end/1000, rate(ph), demand/1000)
			continue
		}
		pick := best.SafestConfigs()[0]
		fmt.Printf("%-9s %3d-%3ds  %5.1f/s  %6.0fk  %-50s %7.0fk req/s\n",
			ph.name, ph.first/1000, ph.end/1000, rate(ph), demand/1000,
			pick.Label(), offline.Measurements[pick.ID].Perf/1000)
	}

	fmt.Println("\nThe same trace drives flexos-loadgen against a live cluster;")
	fmt.Println("phase boundaries there are reconfiguration points, and each")
	fmt.Println("rebuild is a configuration-file change (§7).")
}
