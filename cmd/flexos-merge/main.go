// Command flexos-merge combines the result stores of N sharded
// exploration runs (flexos-explore -shard i/n -cache <dir>) into one
// merged store, validating that the shards are disjoint: a key present
// in two inputs must carry the byte-identical metrics vector in both
// (canonical twins across shards are deduplicated; a conflicting value
// aborts the merge, since it means the shards were measured by
// disagreeing benchmarks). The merged store is written in sorted key
// order, so its bytes are identical however the space was sharded.
//
// With -app or -scenario it then re-runs the full (unsharded)
// exploration against the merged store — ranking, pruning and Pareto
// extraction over the union — and prints the standard report on
// stdout. Because the store covers every configuration the unsharded
// run would measure, that report is byte-identical to a cold
// `flexos-explore` run with the same flags; the run statistics on
// stderr show the cache serving it.
//
// Usage:
//
//	flexos-explore -app redis -shard 0/3 -cache shards/0
//	flexos-explore -app redis -shard 1/3 -cache shards/1
//	flexos-explore -app redis -shard 2/3 -cache shards/2
//	flexos-merge -out merged shards/0 shards/1 shards/2
//	flexos-merge -out merged -app redis shards/0 shards/1 shards/2
//	flexos-merge -out merged -scenario redis-get90 -pareto shards/*
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"flexos"
	"flexos/internal/cli"
)

func main() {
	out := flag.String("out", "", "directory to write the merged store to (must not already contain a store)")
	app := flag.String("app", "", "after merging, re-run this scalar space over the merged store: redis | nginx | cross")
	scenarioName := flag.String("scenario", "", "after merging, re-run this scenario workload over the merged store")
	metricName := flag.String("metric", "throughput", "ranking metric for the re-run, and the dimension plain-number -budget values bound")
	var budgets cli.BudgetFlags
	flag.Var(&budgets, "budget", "budget constraint for the re-run; repeatable, same syntax as flexos-explore")
	requests := flag.Int("requests", 200, "requests per measurement for -app re-runs (must match the shard runs)")
	ops := flag.Int("ops", 0, "operations per scenario measurement (<= 0: the scenario's default; must match the shard runs)")
	workers := flag.Int("workers", 0, "concurrent measurement workers for the re-run (<= 0: GOMAXPROCS)")
	pareto := flag.Bool("pareto", false, "print the Pareto frontier in the re-run (implies -exhaustive)")
	exhaustive := flag.Bool("exhaustive", false, "measure every configuration in the re-run (disable monotonic pruning)")
	flag.Parse()

	if *out == "" {
		fatal(2, errors.New("-out is required"))
	}
	shards := flag.Args()
	if len(shards) == 0 {
		fatal(2, errors.New("no shard stores given (pass the -cache directories of the shard runs)"))
	}

	n, err := flexos.MergeStores(*out, shards...)
	if err != nil {
		// A conflict names the colliding record and both sources;
		// spell it out so the user knows which shard dirs disagree
		// (and on what) rather than just that "a merge failed".
		var ce *flexos.MergeConflictError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "flexos-merge: conflicting measurement for record %q (addr %s):\n", ce.Key, ce.Addr)
			fmt.Fprintf(os.Stderr, "  %s: %v\n", ce.DirA, ce.A)
			fmt.Fprintf(os.Stderr, "  %s: %v\n", ce.DirB, ce.B)
			fatal(1, errors.New("the shard stores were produced by disagreeing measurements; re-run the shards with identical flags"))
		}
		fatal(1, err)
	}
	fmt.Fprintf(os.Stderr, "flexos-merge: merged %d stores into %s (%d records)\n", len(shards), *out, n)

	if *app == "" && *scenarioName == "" {
		return
	}

	// Re-run the full exploration over the merged store: ranking,
	// pruning and Pareto extraction over the union. The store is
	// opened read-only — the merge is the whole output; a miss here
	// (a shard run with mismatched flags) measures fresh rather than
	// silently growing the merged store.
	r := cli.Request{App: *app, Scenario: *scenarioName, Requests: *requests, Ops: *ops,
		Metric: *metricName, Budgets: budgets, Pareto: *pareto, Exhaustive: *exhaustive, Workers: *workers}
	q, info, err := r.Build()
	if err != nil {
		fatal(2, err)
	}
	q.CacheReadOnly(*out)

	res, err := q.Run(context.Background())
	noFeasible := errors.Is(err, flexos.ErrNoFeasible)
	if err != nil && !noFeasible {
		fatal(1, err)
	}
	cli.PrintReport(os.Stdout, info.Title, res, info.Constraints, info.ScenarioMode, r.Pareto, noFeasible)
	cli.PrintStats(os.Stderr, "flexos-merge", res)
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "flexos-merge:", err)
	os.Exit(code)
}
