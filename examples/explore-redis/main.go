// Explore-redis reproduces the paper's exploration workflow (§5, Fig. 8)
// end to end through the public API: generate the 80-configuration Redis
// design space, measure it in parallel under partial safety ordering
// with monotonic pruning, and print the safest configurations that
// sustain 500k GET/s — then render one of them back to a configuration
// file, and re-explore under a tighter budget against the measurement
// memo, which re-measures only the points pruning skipped before.
//
// Run with: go run ./examples/explore-redis
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"flexos"
)

func main() {
	const budget = 500_000 // req/s, like the paper's Fig. 8
	const requests = 250

	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	fmt.Printf("design space: %d configurations (5 partitions x 16 hardening sets)\n", len(cfgs))

	// Redis GET throughput, as the redis-get100 scenario measures it.
	get, _ := flexos.ScenarioByName("redis-get100")
	get = get.WithOps(requests)
	measure := func(c *flexos.ExploreConfig) (float64, error) {
		m, err := get.Run(c.Spec(flexos.TCBLibs()))
		return m.Throughput, err
	}

	// One query expresses the whole workflow: the space, the
	// measurement, the throughput floor, pruning, and a memo that
	// remembers every measurement for later runs. The context could
	// carry a deadline; Background means "run to completion".
	memo := flexos.NewExploreMemo()
	q := flexos.NewQuery(cfgs).
		MeasureScalar(measure).
		Floor(flexos.MetricThroughput, budget).
		Prune(true). // skip configs dominated by a budget violation
		Memo(memo)   // remember every measurement for later runs
	res, err := q.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured %d/%d configurations (monotonic pruning skipped the rest)\n\n",
		res.Evaluated, res.Total)

	// The performance spectrum, like Figure 6.
	perfs := make([]float64, 0, len(res.Measurements))
	for _, m := range res.Measurements {
		if m.Evaluated {
			perfs = append(perfs, m.Perf)
		}
	}
	sort.Float64s(perfs)
	fmt.Printf("throughput range: %.0fk .. %.0fk req/s\n\n",
		perfs[0]/1000, perfs[len(perfs)-1]/1000)

	// The stars of Figure 8: the safest configurations meeting the
	// budget.
	fmt.Printf("safest configurations sustaining %dk req/s:\n", budget/1000)
	for _, c := range res.SafestConfigs() {
		fmt.Printf("  * %-55s %8.1fk req/s\n", c.Label(), res.Measurements[c.ID].Perf/1000)
	}

	// Ship one: render the winner back to the configuration-file format
	// the toolchain consumes.
	winner := res.SafestConfigs()[0]
	fmt.Println("\nchosen configuration file:")
	cfg := &flexos.Config{Gate: "full", Sharing: "dss"}
	spec := winner.Spec(flexos.TCBLibs())
	for i, comp := range spec.Comps {
		decl := flexos.ConfigCompartment{Name: comp.Name, Mechanism: "intel-mpk", Default: i == 0}
		for lib, hs := range comp.LibHardening {
			_ = lib
			if !hs.Empty() {
				decl.Hardening = []string{"stackprotector", "ubsan", "kasan"}
				break
			}
		}
		cfg.Compartments = append(cfg.Compartments, decl)
		if i > 0 {
			for _, lib := range comp.Libs {
				cfg.Libraries = append(cfg.Libraries, flexos.ConfigLibAssignment{
					Library: lib, Compartment: comp.Name,
				})
			}
		}
	}
	fmt.Print(flexos.RenderConfig(cfg))

	// What if the budget were tighter? The memo holds every point the
	// first pass measured, so re-exploring only pays for the configs
	// pruning skipped last time.
	tight, err := flexos.NewQuery(cfgs).
		MeasureScalar(measure).
		Floor(flexos.MetricThroughput, budget*1.2).
		Memo(memo).
		Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nre-explored at %.0fk req/s: %d fresh measurements, %d memo hits, %d safest\n",
		budget*1.2/1000, tight.Evaluated, tight.MemoHits, len(tight.Safest))
}
