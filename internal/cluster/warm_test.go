// Tests of when a coordinator asks the fleet: its own pass gathers on
// its first store miss, once per flight, and never for a request the
// store already covers or whose semantics are node-local.
package cluster_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexos/internal/cli"
	"flexos/internal/cluster"
	"flexos/internal/serve"
)

// dispatched returns every worker's dispatch and re-dispatch counters.
func dispatched(st *cluster.Stats) []int64 {
	out := make([]int64, 0, 2*len(st.Workers))
	for _, w := range st.Workers {
		out = append(out, w.Dispatched, w.Redispatched)
	}
	return out
}

// exploreOracle runs creq through the coordinator, complete or streamed as
// it asks, and fails unless the bytes equal the single-node oracle.
func (tc *testCluster) exploreOracle(t *testing.T, creq cli.Request) {
	t.Helper()
	wantReport, wantLines := oracle(t, creq)
	ctx := context.Background()
	if !creq.Stream {
		resp, err := tc.client.Explore(ctx, creq)
		if err != nil {
			t.Fatalf("%+v: %v", creq, err)
		}
		if resp.Report != wantReport {
			t.Fatalf("%+v: report differs from the oracle\n--- cluster ---\n%s--- oracle ---\n%s", creq, resp.Report, wantReport)
		}
		return
	}
	var lines []string
	resp, err := tc.client.ExploreStream(ctx, creq, func(l string) { lines = append(lines, l) })
	if err != nil {
		t.Fatalf("%+v: %v", creq, err)
	}
	if resp.Report != wantReport || strings.Join(lines, "\n") != strings.Join(wantLines, "\n") {
		t.Fatalf("%+v: streamed bytes differ from the oracle", creq)
	}
}

// TestClusterWarmRepeatGathersNothing: once a request has been
// answered, a complete and a streamed repeat are served from the
// coordinator's store — no gather, no shard, no worker request.
func TestClusterWarmRepeatGathersNothing(t *testing.T) {
	tc := newCluster(t, 2, 0)
	creq := cli.Request{Scenario: "redis-get90"}
	tc.exploreOracle(t, creq)
	before := tc.co.Stats()
	if before.Gathers != 1 {
		t.Fatalf("cold request gathered %d times, want 1: %+v", before.Gathers, before)
	}

	tc.exploreOracle(t, creq)
	creq.Stream = true
	tc.exploreOracle(t, creq)

	after := tc.co.Stats()
	if after.Gathers != before.Gathers || after.Shards != before.Shards {
		t.Fatalf("warm repeats fanned out: gathers %d -> %d, shards %d -> %d",
			before.Gathers, after.Gathers, before.Shards, after.Shards)
	}
	if b, a := dispatched(before), dispatched(after); !slices.Equal(b, a) {
		t.Fatalf("warm repeats reached a worker: %v -> %v", b, a)
	}
}

// TestClusterNewNamespaceGathersOnce: a request in a namespace the
// coordinator has never seen gathers once — also when the fleet is
// dead and every key the pass needs stays missing after the gather.
func TestClusterNewNamespaceGathersOnce(t *testing.T) {
	tc := newCluster(t, 2, 0)
	tc.exploreOracle(t, cli.Request{Scenario: "redis-get90"})
	for i, creq := range []cli.Request{
		{Scenario: "redis-get90", Ops: 48},
		{Scenario: "nginx-keep75", Metric: "p99", Budgets: []string{"3"}},
		{Scenario: "redis-get50", Ops: 48}, // asked of a dead fleet
	} {
		if i == 2 {
			for _, w := range tc.workers {
				w.kill()
			}
		}
		before := tc.co.Stats().Gathers
		tc.exploreOracle(t, creq)
		if got := tc.co.Stats().Gathers - before; got != 1 {
			t.Fatalf("request %d (%+v) gathered %d times, want 1", i, creq, got)
		}
	}
}

// TestClusterConcurrentRequestsGatherOncePerRequest: cold requests
// fired at once through one coordinator, each several times, answer
// oracle bytes, and no request gathers twice — an identical request
// either joins the flight or finds the store warm.
func TestClusterConcurrentRequestsGatherOncePerRequest(t *testing.T) {
	tc := newCluster(t, 2, 0)
	reqs := []cli.Request{
		{Scenario: "redis-get90", Ops: 40},
		{Scenario: "redis-get90", Ops: 40, Stream: true},
		{Scenario: "redis-get50", Ops: 40},
		{Scenario: "nginx-keep75", Ops: 40, Metric: "p99", Budgets: []string{"3"}},
	}
	want := make([]string, len(reqs))
	for i, creq := range reqs {
		want[i], _ = oracle(t, creq)
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, creq := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got string
				if creq.Stream {
					resp, err := tc.client.ExploreStream(context.Background(), creq, func(string) {})
					if err != nil {
						t.Errorf("%+v: %v", creq, err)
						return
					}
					got = resp.Report
				} else {
					resp, err := tc.client.Explore(context.Background(), creq)
					if err != nil {
						t.Errorf("%+v: %v", creq, err)
						return
					}
					got = resp.Report
				}
				if got != want[i] {
					t.Errorf("%+v: report differs from the oracle", creq)
				}
			}()
		}
	}
	wg.Wait()
	// The complete and streamed redis-get90 requests share one key, so
	// three cold keys gather once each.
	if st := tc.co.Stats(); st.Gathers != 3 {
		t.Fatalf("three distinct cold requests gathered %d times, want 3", st.Gathers)
	}
}

// TestClusterNodeLocalRequestsNeverGather: budgeted and delta-only
// requests are served by the coordinator alone, even cold.
func TestClusterNodeLocalRequestsNeverGather(t *testing.T) {
	tc := newCluster(t, 2, 0)
	tc.exploreOracle(t, cli.Request{Scenario: "redis-get90", MeasureBudget: 20, Seed: 3})
	if _, err := tc.client.Explore(context.Background(), cli.Request{Scenario: "redis-get50", DeltaOnly: true}); err != nil {
		t.Fatal(err)
	}
	st := tc.co.Stats()
	if st.Gathers != 0 || st.Shards != 0 {
		t.Fatalf("a node-local request fanned out: %+v", st)
	}
	for _, n := range dispatched(st) {
		if n != 0 {
			t.Fatalf("a node-local request reached a worker: %+v", st.Workers)
		}
	}
}

// TestClusterCanceledWhileGatherWaits: the only worker accepts the
// shard and never answers; the caller walks away. The flight counts as
// canceled, nothing of it keeps running, and once the worker recovers
// the same request answers oracle bytes.
func TestClusterCanceledWhileGatherWaits(t *testing.T) {
	w := newWorker(t)
	var hang atomic.Bool
	hang.Store(true)
	arrived := make(chan struct{}, 1)
	stop := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cli.ExplorePath && hang.Load() {
			// Read the body, as a real handler does: the server notices
			// a dropped connection (and cancels r.Context) only then.
			io.Copy(io.Discard, r.Body)
			select {
			case arrived <- struct{}{}:
			default:
			}
			select {
			case <-r.Context().Done():
			case <-stop: // a failed test's cleanup
			}
			return
		}
		w.srv.ServeHTTP(rw, r)
	}))
	t.Cleanup(hung.Close)

	co := cluster.New(cluster.Config{HealthInterval: time.Hour})
	co.Join(hung.URL)
	coord, err := serve.New(serve.Config{Workers: 2, Cluster: co})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(func() { ts.Close(); coord.Close() })
	// Runs first: should the flight outlive its caller, release the
	// worker so closing the coordinator cannot wait on it forever.
	t.Cleanup(func() { close(stop) })
	client := &cli.Client{BaseURL: ts.URL}

	creq := cli.Request{Scenario: "redis-get90", Ops: 24}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := client.Explore(ctx, creq)
		errc <- err
	}()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the gather never reached the worker")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("a canceled request answered")
	}

	waitFor(t, "the flight to finish as canceled", func() bool {
		st := coord.Stats()
		return st.Canceled == 1 && st.InFlight == 0 && st.Completed == 0
	})
	waitFor(t, "the flight's goroutines to exit", func() bool {
		return !goroutinesRunning("serve.(*Server).runFlight", "cluster.(*Coordinator).Gather", "cluster.(*Coordinator).dispatch")
	})
	if st := co.Stats(); st.Gathers != 1 || st.InlineRuns != 0 {
		t.Fatalf("canceled gather: %+v", st)
	}

	hang.Store(false)
	tc := &testCluster{co: co, coord: coord, ts: ts, client: client}
	tc.exploreOracle(t, creq)
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutinesRunning reports whether any goroutine's stack names one of
// the given functions.
func goroutinesRunning(funcs ...string) bool {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range funcs {
		if strings.Contains(stacks, fn) {
			return true
		}
	}
	return false
}
