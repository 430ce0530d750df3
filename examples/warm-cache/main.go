// Command warm-cache demonstrates persistent, sharded exploration: the
// result store that makes repeated and distributed design-space
// exploration O(new points) instead of O(space).
//
// It runs the same Redis query three ways and shows that the outcome
// never moves while the measurement count collapses:
//
//  1. a cold run writing through to a store directory,
//  2. a warm rerun served entirely from that store,
//  3. a sharded run — three slices of the space explored into three
//     independent stores (in real use: three CI jobs), merged with
//     MergeStores, then re-ranked over the union.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"flexos"
)

// measure runs a short Redis GET workload and keeps its throughput:
// here the point is cache behavior, not cycles.
func measure(c *flexos.ExploreConfig) (float64, error) {
	get, _ := flexos.ScenarioByName("redis-get100")
	m, err := get.WithOps(50).Run(c.Spec(flexos.TCBLibs()))
	return m.Throughput, err
}

func query() *flexos.Query {
	return flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
		MeasureScalar(measure).
		Namespace("warm-cache-example/50").
		Floor(flexos.MetricThroughput, 500_000).
		Prune(true)
}

func main() {
	base, err := os.MkdirTemp("", "flexos-warm-cache")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)
	ctx := context.Background()
	store := filepath.Join(base, "store")

	fmt.Printf("space hash (the CI cache key): %s\n\n", query().SpaceHash())

	cold, err := query().Cache(store).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold run:  measured %3d, cache hits %3d, safest %d\n",
		cold.Evaluated, cold.MemoHits, len(cold.Safest))

	warm, err := query().Cache(store).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm run:  measured %3d, cache hits %3d, safest %d  (served from %s)\n\n",
		warm.Evaluated, warm.MemoHits, len(warm.Safest), filepath.Base(store))

	// Distributed exploration: each shard explores a deterministic,
	// non-overlapping slice of the same space into its own store.
	const shards = 3
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("shard-%d", i))
		res, err := query().Shard(i, shards).Cache(dirs[i]).Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shard %d/%d: measured %3d of %3d configurations\n", i, shards, res.Evaluated, res.Total)
	}
	merged := filepath.Join(base, "merged")
	n, err := flexos.MergeStores(merged, dirs...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged %d shard stores: %d records\n", shards, n)

	union, err := query().CacheReadOnly(merged).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("union re-rank: measured %d, cache hits %d, safest %d\n\n",
		union.Evaluated, union.MemoHits, len(union.Safest))

	same := len(union.Safest) == len(cold.Safest)
	for i := range union.Safest {
		same = same && union.Safest[i] == cold.Safest[i]
	}
	fmt.Printf("sharded+merged result identical to cold run: %v\n", same)
	for _, i := range union.Safest {
		m := union.Measurements[i]
		fmt.Printf("  * %-50s %9.1fk req/s\n", m.Config.Label(), m.Perf/1000)
	}
}
