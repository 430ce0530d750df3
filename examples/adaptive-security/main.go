// Adaptive-security demonstrates the §7 use case "As Secure as You can
// Afford": a service provider runs, at any time, the safest Redis
// configuration that can sustain the *actual* client load, rather than
// provisioning for peak load and leaving defenses off during quiet
// hours.
//
// The example explores the design space once, then walks a simulated
// daily load curve and shows which configuration the operator would
// deploy at each level — strong isolation plus full hardening at night,
// gracefully shedding defenses as the morning traffic ramps up.
//
// Run with: go run ./examples/adaptive-security
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"flexos"
)

func main() {
	const requests = 250
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	// Redis GET throughput, as the redis-get100 scenario measures it.
	get, _ := flexos.ScenarioByName("redis-get100")
	get = get.WithOps(requests)
	measure := func(c *flexos.ExploreConfig) (float64, error) {
		m, err := get.Run(c.Spec(flexos.TCBLibs()))
		return m.Throughput, err
	}

	// Exhaustively measure once (offline, e.g. in CI); an unconstrained
	// query measures everything, and the results are reused for every
	// load level.
	ctx := context.Background()
	res, err := flexos.NewQuery(cfgs).MeasureScalar(measure).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// A simulated day: load in requests/s.
	day := []struct {
		hour string
		load float64
	}{
		{"03:00", 150_000},
		{"08:00", 400_000},
		{"12:00", 700_000},
		{"19:00", 950_000},
		{"23:00", 300_000},
	}

	fmt.Println("hour   demand      deployed configuration                              sustains")
	for _, slot := range day {
		// The safest configuration whose measured throughput covers the
		// demand: re-rank the poset with the demand as a throughput
		// floor. The query re-runs against the already-measured numbers,
		// so this is instantaneous — and an infeasible demand surfaces
		// as ErrNoFeasible rather than a silent empty set.
		best, err := flexos.NewQuery(cfgs).
			MeasureScalar(func(c *flexos.ExploreConfig) (float64, error) {
				return res.Measurements[c.ID].Perf, nil // reuse offline numbers
			}).
			Floor(flexos.MetricThroughput, slot.load).
			Run(ctx)
		if err != nil && !errors.Is(err, flexos.ErrNoFeasible) {
			log.Fatal(err)
		}
		if len(best.Safest) == 0 {
			fmt.Printf("%s  %7.0fk  no configuration sustains this load\n", slot.hour, slot.load/1000)
			continue
		}
		pick := best.SafestConfigs()[0]
		fmt.Printf("%s  %7.0fk  %-50s %8.0fk req/s\n",
			slot.hour, slot.load/1000, pick.Label(), res.Measurements[pick.ID].Perf/1000)
	}

	fmt.Println("\nRebuilding between these images is a configuration-file change;")
	fmt.Println("the engineering cost of switching the safety profile is nil (§7).")
}
