package synth

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"flexos/internal/explore"
)

// The determinism matrix: a 10k-point synthetic space explored at every
// worker count, cold / warm / sharded, with and without pruning, must
// produce a report byte-identical to the sequential cold oracle. This
// is the engine's central contract — pool scheduling, memo state and
// shard decomposition may only move wall-clock time and the
// Evaluated/MemoHits accounting, never a measurement, a prune decision
// or the safest set.

const matrixSize = 10_000

// renderCore serializes the schedule-invariant portion of a result: the
// per-configuration measurements (key, perf, full vector, evaluated,
// pruned) and the safest set. Cached and the MemoHits/Evaluated
// counters are deliberately absent — they are exactly the fields a warm
// memo is allowed to move.
func renderCore(res *explore.Result) string {
	var b strings.Builder
	for i := range res.Measurements {
		m := &res.Measurements[i]
		fmt.Fprintf(&b, "%s perf=%.9g eval=%t pruned=%t mx=%+v\n",
			m.Config.Key(), m.Perf, m.Evaluated, m.Pruned, m.Metrics)
	}
	fmt.Fprintf(&b, "safest=")
	for _, i := range res.Safest {
		fmt.Fprintf(&b, " %s", res.Measurements[i].Config.Key())
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// renderStrict additionally pins the cache provenance of every
// measurement — what cold runs at different worker counts must agree
// on.
func renderStrict(res *explore.Result) string {
	var b strings.Builder
	for i := range res.Measurements {
		fmt.Fprintf(&b, "cached=%t\n", res.Measurements[i].Cached)
	}
	fmt.Fprintf(&b, "evaluated=%d memohits=%d\n", res.Evaluated, res.MemoHits)
	return renderCore(res) + b.String()
}

func matrixWorkers() []int {
	ws := []int{1, 4, 8}
	gm := runtime.GOMAXPROCS(0)
	for _, w := range ws {
		if w == gm {
			return ws
		}
	}
	return append(ws, gm)
}

func TestEquivalenceMatrix10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-point matrix is a long test")
	}
	cfgs := Space(42, matrixSize)
	measure := Measure(42)
	budget := MedianThroughput(42, cfgs)
	engine := explore.Engine{}

	for _, prune := range []bool{false, true} {
		req := explore.Request{
			Space: explore.NewSpace(cfgs), Measure: measure, Workers: 1, Prune: prune,
			Constraints: []explore.Constraint{explore.BudgetConstraint("throughput", budget)},
			Workload:    "synth42",
		}
		oracle, err := engine.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("prune=%t: oracle: %v", prune, err)
		}
		oracleCore := renderCore(oracle)
		oracleStrict := renderStrict(oracle)
		if prune && oracle.Evaluated == oracle.Total {
			t.Fatal("median budget pruned nothing; matrix would not exercise the pruned walk")
		}

		// Cold runs at every worker count: byte-identical to the oracle
		// including cache provenance and accounting.
		for _, w := range matrixWorkers() {
			r := req
			r.Workers = w
			res, err := engine.Run(context.Background(), r)
			if err != nil {
				t.Fatalf("prune=%t workers=%d: %v", prune, w, err)
			}
			if renderStrict(res) != oracleStrict {
				t.Fatalf("prune=%t workers=%d: cold run diverges from sequential oracle", prune, w)
			}
		}

		// Warm runs: a memo populated by a full cold run must leave the
		// core report untouched at every worker count, with zero fresh
		// measurements.
		memo := explore.NewMemo()
		warmReq := req
		warmReq.Memo = memo
		if _, err := engine.Run(context.Background(), warmReq); err != nil {
			t.Fatalf("prune=%t: memo fill: %v", prune, err)
		}
		for _, w := range matrixWorkers() {
			r := warmReq
			r.Workers = w
			res, err := engine.Run(context.Background(), r)
			if err != nil {
				t.Fatalf("prune=%t workers=%d: warm: %v", prune, w, err)
			}
			if renderCore(res) != oracleCore {
				t.Fatalf("prune=%t workers=%d: warm run diverges from sequential oracle", prune, w)
			}
			if res.Evaluated != 0 {
				t.Fatalf("prune=%t workers=%d: warm run measured %d configurations fresh", prune, w, res.Evaluated)
			}
		}

		// Sharded runs: the concatenation of every shard's measurements
		// must reproduce the oracle's, for a parallel worker count.
		// (Pruning within a shard may measure configurations the
		// unsharded run pruned — a shard cannot see cross-shard
		// predecessors — so the sharded leg of the matrix runs without
		// pruning, where decisions are shard-local by construction.)
		if !prune {
			const shards = 4
			var parts []string
			for s := 0; s < shards; s++ {
				r := req
				r.Workers = 8
				r.Shard = explore.Shard{Index: s, Count: shards}
				res, err := engine.Run(context.Background(), r)
				if err != nil {
					t.Fatalf("shard %d/%d: %v", s, shards, err)
				}
				part := renderCore(res)
				parts = append(parts, part[:strings.Index(part, "safest=")])
			}
			oracleBody := oracleCore[:strings.Index(oracleCore, "safest=")]
			if strings.Join(parts, "") != oracleBody {
				t.Fatal("concatenated shard measurements diverge from sequential oracle")
			}
		}
	}
}
