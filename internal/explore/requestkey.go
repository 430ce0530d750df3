package explore

import (
	"fmt"
	"sort"
	"strings"

	"flexos/internal/scenario"
)

// normalize resolves the request's defaults and drops the knobs the
// engine ignores: the ranking metric falls back to the first
// constraint's metric, then to throughput; a negative measurement
// budget means none; the seed is meaningless without a budget; and
// delta dispatch never prunes. Engine.Run runs the normalized request
// and Key formats it, so the two cannot disagree.
func (r Request) normalize() Request {
	if r.Space == nil {
		r.Space = emptySpace
	}
	if r.Metric == "" {
		if len(r.Constraints) > 0 {
			r.Metric = r.Constraints[0].Metric
		}
		if r.Metric == "" {
			r.Metric = scenario.MetricThroughput
		}
	}
	if r.MeasureBudget < 0 {
		r.MeasureBudget = 0
	}
	if r.MeasureBudget == 0 {
		r.Seed = 0
	}
	if r.DeltaOnly {
		r.Prune = false
	}
	return r
}

// Key digests everything about the request that can change the bytes
// of its result: the space identity (Space.Hash of the Workload
// namespace plus every configuration key), the resolved ranking
// metric, the constraint conjunction, pruning, the shard, the
// measurement budget and seed, and delta mode. Two requests share a
// key exactly when the engine is guaranteed to produce byte-identical
// results for both — which is what lets a serving layer coalesce
// concurrent requests onto one engine pass.
//
// Deliberately excluded: the worker count (results are byte-identical
// for every value), the memo/backing (a cache tier can change
// statistics, never results), and the Observe hook.
// Constraints are rendered canonically and sorted, since feasibility
// is their conjunction — "a AND b" and "b AND a" decide the same runs.
// The key formats the normalized request, so knobs the engine ignores
// (a seed without a budget, prune under delta) never split a flight.
func (r Request) Key() string {
	r = r.normalize()
	cs := make([]string, 0, len(r.Constraints))
	for _, c := range r.Constraints {
		cs = append(cs, c.String())
	}
	sort.Strings(cs)
	return fmt.Sprintf("space=%s;metric=%s;constraints=%s;prune=%t;shard=%s;budget=%d;seed=%d;delta=%t",
		r.Space.Hash(r.Workload), r.Metric, strings.Join(cs, ","), r.Prune, r.Shard,
		r.MeasureBudget, r.Seed, r.DeltaOnly)
}
