// Command cluster demonstrates the distributed exploration cluster:
// it boots three in-process worker daemons and one coordinator over
// real loopback HTTP, runs a scenario exploration through the
// coordinator, and byte-compares the answer against a plain local run
// — then kills a worker and does it again, showing that shard
// re-dispatch preserves the bytes. Finally it lets a fourth, empty
// daemon warm-start from the coordinator's store over the pull
// protocol.
//
// The same topology runs as separate processes with:
//
//	flexos-serve -addr :8070 -coordinator
//	flexos-serve -addr :8071 -join http://127.0.0.1:8070 -advertise http://127.0.0.1:8071
//	... (see examples/cluster/compose.yaml for the container version)
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/cluster"
	"flexos/internal/serve"
)

func main() {
	ctx := context.Background()
	req := cli.Request{Scenario: "redis-get90", Budgets: []string{"400000"}}

	// The single-node oracle: what the cluster must reproduce.
	q, info, err := req.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := q.Run(ctx)
	if err != nil && !errors.Is(err, flexos.ErrNoFeasible) {
		log.Fatal(err)
	}
	oracle := cli.RenderReport(info.Title, res, info.Constraints, info.ScenarioMode,
		req.Pareto, req.Verbose, errors.Is(err, flexos.ErrNoFeasible))

	// Three workers, each a full flexos-serve daemon. The kill switches
	// simulate process death: a killed worker refuses everything.
	var killed [3]atomic.Bool
	var workers [3]*httptest.Server
	for i := range workers {
		srv, err := serve.New(serve.Config{Workers: 2})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		i := i
		workers[i] = httptest.NewServer(serveUnlessKilled(srv, &killed[i]))
		defer workers[i].Close()
	}

	// The coordinator: splits requests into shard sub-requests, places
	// shard i on live worker (r+i) mod n (r a hash of the request),
	// merges the returned records into its memo, and re-ranks locally.
	co := cluster.New(cluster.Config{
		Fanout:         3,
		Retry:          &cli.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		HealthInterval: time.Hour, // this demo relies on dispatch strikes
		HealthStrikes:  1,
	})
	for _, w := range workers {
		co.Join(w.URL)
	}
	coord, err := serve.New(serve.Config{Workers: 2, Cluster: co})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord)
	defer front.Close()
	client := &cli.Client{BaseURL: front.URL, Retry: cli.DefaultRetry}

	// 1. A coordinated run over the healthy fleet.
	resp, err := client.Explore(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinated over 3 workers, byte-identical to the local run: %v\n", resp.Report == oracle)

	st := co.Stats()
	fmt.Printf("fleet: %d alive, %d shards dispatched", st.Alive, st.Shards)
	for _, w := range st.Workers {
		fmt.Printf("  [%d]", w.Dispatched)
	}
	fmt.Println()

	// 2. Kill one worker and ask again (a fresh slice of the space so
	// the cluster actually has to measure). Its shard strikes out, moves
	// on to the next live worker, and the answer does not change by a
	// byte.
	req2 := cli.Request{Scenario: "redis-get50"}
	q2, info2, err := req2.Build()
	if err != nil {
		log.Fatal(err)
	}
	res2, err := q2.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	oracle2 := cli.RenderReport(info2.Title, res2, info2.Constraints, info2.ScenarioMode, false, false, false)

	killed[1].Store(true)
	workers[1].CloseClientConnections()
	resp2, err := client.Explore(ctx, req2)
	if err != nil {
		log.Fatal(err)
	}
	st = co.Stats()
	fmt.Printf("worker 1 killed mid-fleet: report still byte-identical: %v (%d re-dispatches, %d shards left to the coordinator's own pass)\n",
		resp2.Report == oracle2, st.Redispatches, st.InlineRuns)

	// 3. Store sync: an empty daemon pulls the coordinator's sync log
	// and then answers the first request without measuring anything.
	late, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer late.Close()
	lateTS := httptest.NewServer(late)
	defer lateTS.Close()
	late.StartPull(front.URL, 20*time.Millisecond)
	for late.Stats().RecordsIngested == 0 {
		time.Sleep(20 * time.Millisecond)
	}
	lateResp, err := (&cli.Client{BaseURL: lateTS.URL}).Explore(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("late daemon warm-started over /v1/store/pull: ingested %d records, answered with %d fresh measurements, byte-identical: %v\n",
		late.Stats().RecordsIngested, lateResp.Stats.Evaluated, lateResp.Report == oracle)

	if resp.Report != oracle || resp2.Report != oracle2 || lateResp.Report != oracle {
		log.Fatal("cluster answers diverged from the single-node oracle")
	}
}

// serveUnlessKilled wraps a daemon with its kill switch.
func serveUnlessKilled(srv *serve.Server, dead *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			http.Error(w, "worker killed", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	})
}
