// End-to-end and failure-injection tests for the cluster layer: a
// coordinator serve.Server fronting real worker serve.Servers over
// loopback HTTP. The invariant under test is the tentpole guarantee:
// a coordinated answer is byte-identical to the single-node oracle at
// any worker count and fan-out, including when workers die mid-run —
// once, twice, at random moments, or all of them.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/cluster"
	"flexos/internal/serve"
)

// oracle runs the request locally — the single-node ground truth the
// cluster must reproduce byte-for-byte.
func oracle(t *testing.T, creq cli.Request) (report string, lines []string) {
	t.Helper()
	q, info, err := creq.Build()
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	q.Workers(4)
	seq, final := q.Stream(context.Background())
	for cfg, m := range seq {
		lines = append(lines, cli.StreamLine(info.ScenarioMode, cfg, m))
	}
	res, err := final()
	noFeasible := errors.Is(err, flexos.ErrNoFeasible)
	if err != nil && !noFeasible {
		t.Fatalf("oracle run: %v", err)
	}
	return cli.RenderReport(info.Title, res, info.Constraints, info.ScenarioMode, creq.Pareto, creq.Verbose, noFeasible), lines
}

// worker is one daemon plus a kill switch: killed, it cuts live
// connections and refuses new requests with a 503 — the HTTP shape of
// a dead process behind a listening port (CI kills real processes;
// here the switch keeps the test in-process for -race).
type worker struct {
	srv    *serve.Server
	ts     *httptest.Server
	killed atomic.Bool
	// dieOnExplore arms a deterministic mid-request death: the worker
	// kills itself the moment its next shard dispatch arrives.
	dieOnExplore atomic.Bool
}

func newWorker(t *testing.T) *worker {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{srv: srv}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cli.ExplorePath && w.dieOnExplore.CompareAndSwap(true, false) {
			w.kill()
		}
		if w.killed.Load() {
			http.Error(rw, "worker killed", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() { w.ts.Close(); srv.Close() })
	return w
}

func (w *worker) kill() {
	w.killed.Store(true)
	w.ts.CloseClientConnections()
}

// testCluster is a coordinator over n workers.
type testCluster struct {
	co      *cluster.Coordinator
	coord   *serve.Server
	ts      *httptest.Server
	client  *cli.Client
	workers []*worker
}

func newCluster(t *testing.T, nWorkers, fanout int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	tc.co = cluster.New(cluster.Config{
		Fanout: fanout,
		// Tight per-call retry: a dead worker strikes out in
		// milliseconds, re-dispatch is what we are testing.
		Retry: &cli.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		// Probes would resurrect killed-then-503 workers; in tests the
		// dispatch strikes are the failure detector.
		HealthInterval: time.Hour,
		HealthStrikes:  1,
	})
	for i := 0; i < nWorkers; i++ {
		w := newWorker(t)
		tc.workers = append(tc.workers, w)
		tc.co.Join(w.ts.URL)
	}
	coord, err := serve.New(serve.Config{Workers: 2, Cluster: tc.co})
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.ts = httptest.NewServer(coord)
	tc.client = &cli.Client{BaseURL: tc.ts.URL,
		Retry: &cli.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}}
	t.Cleanup(func() { tc.ts.Close(); coord.Close() })
	return tc
}

// revive brings a killed worker back and re-joins it (the heartbeat's
// job in production).
func (tc *testCluster) revive(w *worker) {
	w.killed.Store(false)
	tc.co.Join(w.ts.URL)
}

var testRequests = []cli.Request{
	{Scenario: "redis-get90"},
	{Scenario: "nginx-keep75", Metric: "p99", Budgets: []string{"3"}},
	{Scenario: "redis-pipe8", Budgets: []string{"throughput>=200000", "p99<=40", "mem<=400000"}},
	{App: "redis", Budgets: []string{"600000"}},                // mostly infeasible
	{Scenario: "redis-get50", Pareto: true, Exhaustive: false}, // unpruned re-rank
}

func TestClusterByteIdenticalAcrossFanouts(t *testing.T) {
	for _, fanout := range []int{1, 2, 3, 5} {
		fanout := fanout
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			t.Parallel()
			tc := newCluster(t, 3, fanout)
			for _, creq := range testRequests[:3] {
				want, _ := oracle(t, creq)
				resp, err := tc.client.Explore(context.Background(), creq)
				if err != nil {
					t.Fatalf("cluster explore %+v: %v", creq, err)
				}
				if resp.Report != want {
					t.Fatalf("cluster report differs from single-node oracle (fanout %d)\nreq: %+v\n--- cluster ---\n%s--- oracle ---\n%s",
						fanout, creq, resp.Report, want)
				}
			}
			st := tc.co.Stats()
			if st.Gathers == 0 || st.Shards == 0 {
				t.Fatalf("coordinator never dispatched: %+v", st)
			}
			var dispatched int64
			for _, w := range st.Workers {
				dispatched += w.Dispatched
			}
			if dispatched == 0 {
				t.Fatalf("no worker received a shard: %+v", st.Workers)
			}
		})
	}
}

func TestClusterStreamByteIdentical(t *testing.T) {
	tc := newCluster(t, 3, 3)
	creq := cli.Request{Scenario: "redis-get90", Stream: true}
	wantReport, wantLines := oracle(t, creq)
	var gotLines []string
	resp, err := tc.client.ExploreStream(context.Background(), creq, func(l string) { gotLines = append(gotLines, l) })
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report != wantReport {
		t.Fatalf("streamed report differs\n--- cluster ---\n%s--- oracle ---\n%s", resp.Report, wantReport)
	}
	if strings.Join(gotLines, "\n") != strings.Join(wantLines, "\n") {
		t.Fatalf("streamed lines differ\ncluster: %d lines\noracle: %d lines", len(gotLines), len(wantLines))
	}
}

// TestClusterPruningStaysConservative: a pruned coordinated run must
// also match — worker shards prune shard-locally (a conservative
// superset of the full-space pruning), and the coordinator's re-rank
// prunes exactly like the oracle over a warm memo.
func TestClusterPrunedAndParetoRequests(t *testing.T) {
	tc := newCluster(t, 3, 3)
	for _, creq := range testRequests[3:] {
		want, _ := oracle(t, creq)
		resp, err := tc.client.Explore(context.Background(), creq)
		if err != nil {
			t.Fatalf("cluster explore %+v: %v", creq, err)
		}
		if resp.Report != want {
			t.Fatalf("report differs for %+v\n--- cluster ---\n%s--- oracle ---\n%s", creq, resp.Report, want)
		}
	}
}

// TestClusterWorkerDiesOnDispatch pins the mid-request death
// deterministically: the victim is killed by its own first shard
// arriving. Every worker takes a turn as victim; each request must
// still answer oracle bytes. Each round asks a cold request (its own
// Ops), since a request the coordinator's store covers dispatches
// nothing. At fan-out 3 over three workers every worker owns one
// shard, so each victim's shard loses its home and is re-dispatched or
// left to the coordinator's own pass.
func TestClusterWorkerDiesOnDispatch(t *testing.T) {
	tc := newCluster(t, 3, 3)
	for i, victim := range tc.workers {
		creq := cli.Request{Scenario: "redis-get90", Ops: 30 + i}
		want, _ := oracle(t, creq)
		victim.dieOnExplore.Store(true)
		resp, err := tc.client.Explore(context.Background(), creq)
		if err != nil {
			t.Fatalf("explore with worker %d dying on dispatch: %v", i, err)
		}
		if resp.Report != want {
			t.Fatalf("report differs with worker %d dying mid-request\n--- cluster ---\n%s--- oracle ---\n%s", i, resp.Report, want)
		}
		tc.revive(victim)
	}
	st := tc.co.Stats()
	if st.Redispatches+st.InlineRuns < 3 {
		t.Fatalf("three victims but only %d shards re-dispatched or ran inline: %+v", st.Redispatches+st.InlineRuns, st)
	}
}

// TestClusterRandomWorkerKilledMidRun is the property test: a random
// worker dies at a random moment of each coordinated run, and the
// answer must stay byte-identical to the oracle. Each round asks with
// its own Ops, so no round is answered from the coordinator's store:
// every one gathers from the fleet exactly once, which its kill can
// reach. Seeded — failures reproduce.
func TestClusterRandomWorkerKilledMidRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xf1e105, 2022))
	tc := newCluster(t, 3, 3)
	for round := 0; round < 6; round++ {
		creq := testRequests[rng.IntN(3)]
		creq.Ops = 200 + round
		want, _ := oracle(t, creq)
		gathers := tc.co.Stats().Gathers

		victim := tc.workers[rng.IntN(len(tc.workers))]
		delay := time.Duration(rng.IntN(30)) * time.Millisecond
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(delay)
			victim.kill()
		}()
		resp, err := tc.client.Explore(context.Background(), creq)
		<-done
		if err != nil {
			t.Fatalf("round %d (victim killed after %v): %v", round, delay, err)
		}
		if resp.Report != want {
			t.Fatalf("round %d: report differs from oracle after killing a worker %v into the run\n--- cluster ---\n%s--- oracle ---\n%s",
				round, delay, resp.Report, want)
		}
		if got := tc.co.Stats().Gathers; got != gathers+1 {
			t.Fatalf("round %d: coordinator gathers %d -> %d, want one gather per cold round", round, gathers, got)
		}
		tc.revive(victim)
	}
}

// TestClusterSameWorkerKilledTwice: the same worker dies in two
// consecutive coordinated runs (revived between them), exercising
// strike-out → resurrect → strike-out. Both answers must match the
// oracle.
func TestClusterSameWorkerKilledTwice(t *testing.T) {
	tc := newCluster(t, 3, 3)
	creq := cli.Request{Scenario: "redis-get90"}
	want, _ := oracle(t, creq)

	// A clean probe run first, to find a worker that owns a shard of
	// this request. At fan-out 3 over three workers each owns one; the
	// probe keeps the test honest should that placement ever change,
	// since killing a worker no shard routes to would assert nothing.
	if resp, err := tc.client.Explore(context.Background(), creq); err != nil || resp.Report != want {
		t.Fatalf("probe run: err=%v, identical=%v", err, err == nil && resp.Report == want)
	}
	var victim *worker
	for _, st := range tc.co.Stats().Workers {
		for _, w := range tc.workers {
			if st.URL == w.ts.URL && st.Dispatched > 0 {
				victim = w
			}
		}
	}
	if victim == nil {
		t.Fatal("no worker was dispatched to on the probe run")
	}

	// Kill the shard owner; a cold request (its own Ops: a request the
	// coordinator's store covers dispatches nothing) re-dispatches its
	// shards and must not change a byte. Then revive, kill again,
	// repeat. At fan-out 3 over three workers the victim owns a shard
	// of every request.
	failuresBefore := workerFailures(tc, victim)
	for round := 1; round <= 2; round++ {
		creq := cli.Request{Scenario: "redis-get90", Ops: 30 + round}
		want, _ := oracle(t, creq)
		victim.kill()
		resp, err := tc.client.Explore(context.Background(), creq)
		if err != nil {
			t.Fatalf("round %d with %s killed: %v", round, victim.ts.URL, err)
		}
		if resp.Report != want {
			t.Fatalf("round %d: report differs with the same worker killed again\n--- cluster ---\n%s--- oracle ---\n%s", round, resp.Report, want)
		}
		tc.revive(victim)
	}
	if got := workerFailures(tc, victim); got < failuresBefore+2 {
		t.Fatalf("victim %s failures %d -> %d; want two recorded deaths: %+v",
			victim.ts.URL, failuresBefore, got, tc.co.Stats().Workers)
	}
}

func workerFailures(tc *testCluster, w *worker) int64 {
	for _, st := range tc.co.Stats().Workers {
		if st.URL == w.ts.URL {
			return st.Failures
		}
	}
	return 0
}

// TestClusterAllWorkersDead: with the whole fleet gone every shard
// falls back inline, and the answer is still byte-identical.
func TestClusterAllWorkersDead(t *testing.T) {
	tc := newCluster(t, 3, 3)
	for _, w := range tc.workers {
		w.kill()
	}
	creq := cli.Request{Scenario: "redis-get90"}
	want, _ := oracle(t, creq)
	resp, err := tc.client.Explore(context.Background(), creq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report != want {
		t.Fatalf("report differs with every worker dead\n--- cluster ---\n%s--- oracle ---\n%s", resp.Report, want)
	}
	st := tc.co.Stats()
	if st.InlineRuns == 0 {
		t.Fatalf("expected inline fallback with no live workers: %+v", st)
	}
}

// TestClusterNoWorkersAtAll: a coordinator nobody joined serves
// plain local answers (fleet of one).
func TestClusterNoWorkersAtAll(t *testing.T) {
	tc := newCluster(t, 0, 0)
	creq := cli.Request{Scenario: "redis-get90"}
	want, _ := oracle(t, creq)
	resp, err := tc.client.Explore(context.Background(), creq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report != want {
		t.Fatalf("empty-fleet coordinator differs from oracle")
	}
}

// TestClusterStatszObservability: the coordinator's /statsz carries
// the per-worker dispatch counters and fleet view.
func TestClusterStatszObservability(t *testing.T) {
	tc := newCluster(t, 2, 2)
	if _, err := tc.client.Explore(context.Background(), cli.Request{Scenario: "redis-get90"}); err != nil {
		t.Fatal(err)
	}
	st := tc.coord.Stats()
	if st.Cluster == nil {
		t.Fatal("coordinator statsz missing cluster section")
	}
	if st.Cluster.Alive != 2 || len(st.Cluster.Workers) != 2 {
		t.Fatalf("fleet view: %+v", st.Cluster)
	}
	if st.RecordsIngested == 0 {
		t.Fatalf("coordinator ingested nothing: %+v", st)
	}
	if st.SyncLogLen == 0 {
		t.Fatalf("sync log empty after a coordinated run: %+v", st)
	}
}

// TestClusterWorkerJoinEndpoint drives registration over HTTP the way
// a real worker does, including the self-join guard.
func TestClusterWorkerJoinEndpoint(t *testing.T) {
	co := cluster.New(cluster.Config{})
	coord, err := serve.New(serve.Config{Workers: 1, Cluster: co, SelfURL: "http://coordinator:1"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(func() { ts.Close(); coord.Close() })
	client := &cli.Client{BaseURL: ts.URL}
	ctx := context.Background()

	if err := client.Join(ctx, "http://worker-a:1"); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := client.Join(ctx, "http://worker-a:1"); err != nil {
		t.Fatalf("re-join must be idempotent: %v", err)
	}
	if err := client.Join(ctx, "http://coordinator:1"); err == nil {
		t.Fatal("self-join must be rejected")
	}
	st := co.Stats()
	if len(st.Workers) != 1 || st.Workers[0].URL != "http://worker-a:1" {
		t.Fatalf("membership after joins: %+v", st.Workers)
	}

	// A plain daemon is not a coordinator: join answers 404.
	plain, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(plain)
	t.Cleanup(func() { pts.Close(); plain.Close() })
	if err := (&cli.Client{BaseURL: pts.URL}).Join(ctx, "http://worker-a:1"); err == nil {
		t.Fatal("plain daemon accepted a join")
	}
}

// TestClusterSpaceCacheColdEqualsWarm: through a coordinator over two
// workers, complete and streamed responses match the single-node
// oracle whether every node built the request's space just now or
// found it in the space cache, at one worker and at eight.
func TestClusterSpaceCacheColdEqualsWarm(t *testing.T) {
	tc := newCluster(t, 2, 2)
	ctx := context.Background()
	for _, creq := range []cli.Request{
		{Scenario: "redis-get90", Ops: 24},
		{Scenario: "redis-get90", Ops: 24, Attack: "combined", Profile: "riscv", Budgets: []string{"survival>=0.5"}},
	} {
		for _, workers := range []int{1, 8} {
			creq.Workers = workers
			wantReport, wantLines := oracle(t, creq)
			cli.ResetSpaceCache()
			for pass := 0; pass < 2; pass++ {
				resp, err := tc.client.Explore(ctx, creq)
				if err != nil {
					t.Fatalf("%+v: %v", creq, err)
				}
				var lines []string
				sresp, err := tc.client.ExploreStream(ctx, creq, func(l string) { lines = append(lines, l) })
				if err != nil {
					t.Fatalf("%+v stream: %v", creq, err)
				}
				if resp.Report != wantReport || sresp.Report != wantReport ||
					strings.Join(lines, "\n") != strings.Join(wantLines, "\n") {
					t.Fatalf("%+v pass %d: cluster bytes differ from the single-node oracle", creq, pass)
				}
			}
			if st := cli.SpaceCache(); st.Misses != 1 || st.Hits == 0 {
				t.Fatalf("%+v: space cache %+v, want one build shared by every node", creq, st)
			}
		}
	}
}
