package explore_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
)

// Engine-level shard and backing properties on the exploretest
// harness: sharding must be indistinguishable from hand-slicing, and
// per-shard backings must merge into a warm start of the full run.

// shardBounds is the balanced contiguous partition Shard.bounds
// documents: the half-open [lo,hi) slice of an n-element space shard
// idx/count owns, the first n%count shards holding one extra element.
func shardBounds(idx, count, n int) (lo, hi int) {
	return idx * n / count, (idx + 1) * n / count
}

// TestEngineShardMatchesManualSubslice: running the engine with a
// Shard must be indistinguishable from running it over the slice by
// hand.
func TestEngineShardMatchesManualSubslice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfgs := exploretest.RandomSpace(rng, 40)
	measure := exploretest.Lift(exploretest.MonotoneMeasure(rng))
	for count := 1; count <= 4; count++ {
		for idx := 0; idx < count; idx++ {
			sh := explore.Shard{Index: idx, Count: count}
			sharded, err := explore.Engine{}.Run(context.Background(), explore.Request{
				Space: explore.NewSpace(exploretest.CopySpace(cfgs)), Measure: measure, Prune: true, Workers: 3, Shard: sh,
			})
			if err != nil {
				t.Fatalf("shard %v: %v", sh, err)
			}
			lo, hi := shardBounds(idx, count, len(cfgs))
			if sh.Size(len(cfgs)) != hi-lo {
				t.Fatalf("shard %v: Size %d, balanced partition says %d", sh, sh.Size(len(cfgs)), hi-lo)
			}
			manual, err := explore.Engine{}.Run(context.Background(), explore.Request{
				Space: explore.NewSpace(exploretest.CopySpace(cfgs)[lo:hi]), Measure: measure, Prune: true, Workers: 3,
			})
			if err != nil {
				t.Fatalf("manual %v: %v", sh, err)
			}
			if sharded.Total != hi-lo || len(sharded.Measurements) != hi-lo {
				t.Fatalf("shard %v: covered %d configs, want %d", sh, sharded.Total, hi-lo)
			}
			for i := range manual.Measurements {
				a, b := sharded.Measurements[i], manual.Measurements[i]
				if a.Perf != b.Perf || a.Evaluated != b.Evaluated || a.Pruned != b.Pruned {
					t.Fatalf("shard %v: measurement %d diverges: %+v vs %+v", sh, i, a, b)
				}
			}
			if !reflect.DeepEqual(sharded.Safest, manual.Safest) {
				t.Fatalf("shard %v: safest %v, manual %v", sh, sharded.Safest, manual.Safest)
			}
		}
	}
}

// TestShardedBackingsWarmStartFullRun is the warm-start property at the
// engine level: explore every shard separately (each writing through
// to a backing), merge the backings, and the full-space run over the
// merged backing must be byte-identical to a cold full-space run while
// measuring nothing fresh — for any shard count and worker count, with
// pruning on.
func TestShardedBackingsWarmStartFullRun(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfgs := exploretest.RandomSpace(rng, 50)
		measure := exploretest.Lift(exploretest.MonotoneMeasure(rng))
		budget := 99_000.0
		req := func(space []*explore.Config) explore.Request {
			return explore.Request{
				Space: explore.NewSpace(space), Measure: measure, Prune: true, Workers: 4,
				Constraints: []explore.Constraint{explore.BudgetConstraint("", budget)},
			}
		}

		cold, err := explore.Engine{}.Run(context.Background(), req(exploretest.CopySpace(cfgs)))
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}

		for _, count := range []int{1, 2, 3, 5} {
			merged := exploretest.NewMapBacking()
			for idx := 0; idx < count; idx++ {
				b := exploretest.NewMapBacking()
				r := req(exploretest.CopySpace(cfgs))
				r.Shard = explore.Shard{Index: idx, Count: count}
				r.Memo = explore.NewBackedMemo(b)
				if _, err := (explore.Engine{}).Run(context.Background(), r); err != nil {
					t.Fatalf("seed %d shard %d/%d: %v", seed, idx, count, err)
				}
				for k, v := range b.Snapshot() {
					if prev, dup := merged.Get(k); dup && prev != v {
						t.Fatalf("seed %d shard %d/%d: conflicting twin value for %q", seed, idx, count, k)
					}
					merged.Put(k, v)
				}
			}

			r := req(exploretest.CopySpace(cfgs))
			r.Memo = explore.NewBackedMemo(merged)
			warm, err := explore.Engine{}.Run(context.Background(), r)
			if err != nil {
				t.Fatalf("seed %d count %d: warm: %v", seed, count, err)
			}
			if warm.Evaluated != 0 {
				t.Fatalf("seed %d count %d: warm run measured %d fresh configs; the shard union must cover the full run", seed, count, warm.Evaluated)
			}
			if !reflect.DeepEqual(warm.Safest, cold.Safest) {
				t.Fatalf("seed %d count %d: safest %v, cold %v", seed, count, warm.Safest, cold.Safest)
			}
			for i := range cold.Measurements {
				a, b := warm.Measurements[i], cold.Measurements[i]
				if a.Perf != b.Perf || a.Metrics != b.Metrics || a.Evaluated != b.Evaluated || a.Pruned != b.Pruned {
					t.Fatalf("seed %d count %d: measurement %d diverges: %+v vs %+v", seed, count, i, a, b)
				}
			}
		}
	}
}
