// Crash-restart demonstrates the §7 use case "Dealing with Crashed
// Software": when a deployment crashes with a memory error, the standard
// reflex is to restart it as-is and examine the fault later. With FlexOS
// it is wiser to restart a *safer configuration of the same software*,
// so that if the crash was an exploit being debugged by an attacker, the
// next attempt lands in a hardened, compartmentalized image.
//
// The example runs a Redis image that "crashes" (a simulated heap
// overflow in the network stack), then walks *up* the safety poset from
// the crashed configuration and redeploys the next safer configuration
// that still meets the SLA — repeating until the exploit attempt is
// contained.
//
// Run with: go run ./examples/crash-restart
package main

import (
	"context"
	"fmt"
	"log"

	"flexos"
)

func main() {
	const sla = 400_000 // req/s the service must sustain
	const requests = 250

	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	// Redis GET throughput, as the redis-get100 scenario measures it.
	get, _ := flexos.ScenarioByName("redis-get100")
	get = get.WithOps(requests)
	measure := func(c *flexos.ExploreConfig) (float64, error) {
		m, err := get.Run(c.Spec(flexos.TCBLibs()))
		return m.Throughput, err
	}
	// Offline exploration pass: an unconstrained query measures
	// everything.
	res, err := flexos.NewQuery(cfgs).MeasureScalar(measure).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// Day 0: the operator deployed the fastest configuration.
	current := 0
	for i, m := range res.Measurements {
		if m.Perf > res.Measurements[current].Perf {
			current = i
		}
	}
	fmt.Printf("deployed: %-55s %8.0fk req/s\n",
		cfgs[current].Label(), res.Measurements[current].Perf/1000)

	// A crash report arrives (memory error in the network stack).
	for hop := 1; hop <= 3; hop++ {
		fmt.Printf("\n!! crash detected (memory error) — restarting a safer configuration\n")

		// Candidates: configurations strictly safer than the current
		// one that still meet the SLA; pick the fastest of those.
		next := -1
		for _, j := range res.Above(current) {
			if res.Measurements[j].Perf < sla {
				continue
			}
			if next == -1 || res.Measurements[j].Perf > res.Measurements[next].Perf {
				next = j
			}
		}
		if next == -1 {
			fmt.Println("no safer configuration meets the SLA; keeping maximum hardening")
			break
		}
		current = next
		fmt.Printf("redeployed: %-53s %8.0fk req/s (%d comps, %d hardened)\n",
			cfgs[current].Label(), res.Measurements[current].Perf/1000,
			cfgs[current].NumCompartments(), cfgs[current].HardenedCount())
	}

	fmt.Println("\nEach restart is a rebuild with a different configuration file —")
	fmt.Println("no code changes, seconds of toolchain time (§7).")
}
