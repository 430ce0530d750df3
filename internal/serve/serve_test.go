package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/cluster"
)

// End-to-end service harness: every test drives the real handler over
// real HTTP (httptest) through the real client, and the acceptance
// bar is oracle equivalence — a served response, complete or
// streamed, must be byte-identical to what the direct Query path
// produces for the same request. Like a protection layer validated
// against an explicit attacker model, the serving layer is only
// trusted as far as this harness proves it.

// newTestServer boots a Server behind httptest and returns the client
// pointed at it. Cleanup closes both.
func newTestServer(t *testing.T, cfg Config) (*Server, *cli.Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, &cli.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

// oracle runs the request directly through the Query path — the
// ground truth the daemon must reproduce byte for byte. The shared
// memo only speeds repeats up; results are byte-identical with or
// without it.
type oracleOut struct {
	report string
	lines  []string
	stats  cli.RunStats
}

func oracle(t *testing.T, req cli.Request, memo *flexos.ExploreMemo) oracleOut {
	t.Helper()
	q, info, err := req.Build()
	if err != nil {
		t.Fatalf("oracle build %+v: %v", req, err)
	}
	if memo != nil {
		q.Memo(memo)
	}
	var lines []string
	seq, final := q.Stream(context.Background())
	for cfg, m := range seq {
		lines = append(lines, cli.StreamLine(info.ScenarioMode, cfg, m))
	}
	res, err := final()
	noFeasible := errors.Is(err, flexos.ErrNoFeasible)
	if err != nil && !noFeasible {
		t.Fatalf("oracle run %+v: %v", req, err)
	}
	return oracleOut{
		report: cli.RenderReport(info.Title, res, info.Constraints, info.ScenarioMode, req.Pareto, req.Verbose, noFeasible),
		lines:  lines,
		stats:  cli.StatsOf(res),
	}
}

// quadScenarioNames lists every library scenario the Fig6 request
// path can serve.
func quadScenarioNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, sc := range flexos.Scenarios() {
		if _, ok := sc.Quad(); ok {
			names = append(names, sc.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("scenario library has no four-component scenarios")
	}
	return names
}

// TestServeOracleEquivalenceAllScenarios is the acceptance criterion:
// for every library scenario, at 1, 4 and 8 workers, the served
// response — complete and streamed — is byte-identical to the direct
// Query oracle.
func TestServeOracleEquivalenceAllScenarios(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 4})
	ctx := context.Background()
	memo := flexos.NewExploreMemo()
	for _, name := range quadScenarioNames(t) {
		for _, workers := range []int{1, 4, 8} {
			req := cli.Request{Scenario: name, Workers: workers}
			want := oracle(t, req, memo)

			resp, err := client.Explore(ctx, req)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if resp.Report != want.report {
				t.Errorf("%s workers=%d: served report differs from oracle:\n--- served\n%s--- oracle\n%s",
					name, workers, resp.Report, want.report)
			}

			var gotLines []string
			sresp, err := client.ExploreStream(ctx, req, func(line string) { gotLines = append(gotLines, line) })
			if err != nil {
				t.Fatalf("%s workers=%d stream: %v", name, workers, err)
			}
			if !reflect.DeepEqual(gotLines, want.lines) {
				t.Errorf("%s workers=%d: streamed lines differ from oracle (%d vs %d lines)",
					name, workers, len(gotLines), len(want.lines))
			}
			if sresp.Report != want.report {
				t.Errorf("%s workers=%d: streamed final report differs from oracle", name, workers)
			}
		}
	}
}

// TestServeOracleEquivalenceRequestMatrix covers the request surface
// beyond plain scenario runs: scalar app spaces, verbose listings,
// Pareto frontiers, multi-constraint conjunctions, shards, ranking
// metrics, and an infeasible budget (whose "no configuration" report
// is still a report, not an error).
func TestServeOracleEquivalenceRequestMatrix(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 4})
	ctx := context.Background()
	reqs := []cli.Request{
		{App: "redis"},
		{App: "redis", Budgets: []string{"400000"}, Verbose: true},
		{App: "nginx", Requests: 120},
		{App: "cross", Shard: "1/3"},
		{App: "cross", Shard: "0/1"},
		{Scenario: "redis-get90", Pareto: true, Exhaustive: true},
		{Scenario: "redis-pipe8", Budgets: []string{"throughput>=200000", "p99<=40", "mem<=400000"}},
		{Scenario: "nginx-keep75", Metric: "p99", Budgets: []string{"3"}},
		{Scenario: "nginx-static", Ops: 120},
		{Scenario: "redis-get50", Budgets: []string{"throughput>=999999999"}}, // infeasible
	}
	for _, req := range reqs {
		want := oracle(t, req, nil)
		resp, err := client.Explore(ctx, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if resp.Report != want.report {
			t.Errorf("%+v: served report differs from oracle:\n--- served\n%s--- oracle\n%s", req, resp.Report, want.report)
		}
		if resp.Stats == nil {
			t.Errorf("%+v: response carries no stats", req)
		} else if resp.Stats.Shard != want.stats.Shard {
			t.Errorf("%+v: served shard %q, oracle %q", req, resp.Stats.Shard, want.stats.Shard)
		}
	}
}

// TestServeColdEqualsWarm pins the memo's guarantee at the service
// boundary: the same request served cold, then entirely from the
// shared memo's store, returns byte-identical reports — only statistics
// move.
func TestServeColdEqualsWarm(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 4, CacheDir: t.TempDir()})
	ctx := context.Background()
	req := cli.Request{Scenario: "redis-get100", Budgets: []string{"300000"}}
	first, err := client.Explore(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Explore(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Report != second.Report {
		t.Error("warm report differs from cold")
	}
	if second.Stats.Evaluated != 0 || second.Stats.MemoHits == 0 {
		t.Errorf("warm rerun statistics: %+v, want everything memo-served", second.Stats)
	}
}

// TestServeRestartWarmStartsFromStore proves the persistent tier: a
// fresh daemon on the same cache directory serves the repeat without
// re-measuring anything.
func TestServeRestartWarmStartsFromStore(t *testing.T) {
	dir := t.TempDir()
	req := cli.Request{Scenario: "iperf-stream4", Budgets: []string{"throughput>=1"}}

	srv1, err := New(Config{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	first, err := (&cli.Client{BaseURL: ts1.URL, HTTPClient: ts1.Client()}).Explore(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	_, client := newTestServer(t, Config{Workers: 4, CacheDir: dir})
	second, err := client.Explore(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Report != second.Report {
		t.Error("restarted daemon's report differs")
	}
	if second.Stats.Evaluated != 0 {
		t.Errorf("restarted daemon re-measured %d configurations; want store-served", second.Stats.Evaluated)
	}
}

// TestServeRejectsBadRequests covers the HTTP error surface: every
// malformed request is a clean 4xx/405 with a JSON error, never a
// hung or half-served response.
func TestServeRejectsBadRequests(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ts := httptest.NewServer(srv) // raw requests outside the typed client
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		res, err := ts.Client().Post(ts.URL+cli.ExplorePath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Body.Close() })
		return res
	}
	for _, tc := range []struct {
		name, body string
	}{
		{"empty body", ""},
		{"not json", "hello"},
		{"unknown field", `{"bogus": 1}`},
		{"trailing garbage", `{"app":"redis"} {"app":"redis"}`},
		{"unknown app", `{"app":"plan9"}`},
		{"unknown scenario", `{"scenario":"nope"}`},
		{"bad metric", `{"metric":"zzz"}`},
		{"bad budget", `{"budgets":["p99<="]}`},
		{"bad shard", `{"shard":"9/4"}`},
		{"pareto without scenario", `{"app":"redis","pareto":true}`},
		{"requests over cap", `{"app":"redis","requests":2000000}`},
	} {
		if res := post(tc.body); res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, res.StatusCode)
		}
	}

	if res, err := ts.Client().Get(ts.URL + cli.ExplorePath); err != nil {
		t.Fatal(err)
	} else if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET explore: HTTP %d, want 405", res.StatusCode)
	} else {
		res.Body.Close()
	}

	// A scenario without a four-component space cannot build a query.
	for _, sc := range flexos.Scenarios() {
		if _, ok := sc.Quad(); !ok {
			if _, err := client.Explore(context.Background(), cli.Request{Scenario: sc.Name()}); err == nil {
				t.Errorf("bench-only scenario %s was accepted", sc.Name())
			}
			break
		}
	}
}

// TestServeHealthzStatsz exercises the observability endpoints.
func TestServeHealthzStatsz(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	if err := client.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Explore(context.Background(), cli.Request{Scenario: "redis-get90"}); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Requests != 1 || st.FlightsStarted != 1 || st.Completed != 1 {
		t.Errorf("stats after one request: %+v", st)
	}
	if st.Evaluated == 0 || st.SyncLogLen != int(st.Evaluated) {
		t.Errorf("stats did not accumulate run statistics: %+v", st)
	}
	if st.MemoEntries != 0 {
		t.Errorf("an idle memo holds %d measurements in flight, want 0: %+v", st.MemoEntries, st)
	}
	if st.UptimeMs <= 0 {
		t.Errorf("uptime gauge did not advance: %+v", st)
	}
	if st.InFlight != 0 || st.Subscribers != 0 {
		t.Errorf("gauges nonzero after the flight completed: %+v", st)
	}
	if st.SyncLogLen == 0 {
		t.Errorf("sync log empty after a completed run: %+v", st)
	}
	if st.RequestLatency.Count != 1 || st.RequestLatency.Window != 1 {
		t.Errorf("request latency did not count the explore: %+v", st.RequestLatency)
	}
	if st.RequestLatency.P50Ms <= 0 ||
		st.RequestLatency.P50Ms > st.RequestLatency.P95Ms ||
		st.RequestLatency.P95Ms > st.RequestLatency.P99Ms ||
		st.RequestLatency.P99Ms > st.RequestLatency.MaxMs {
		t.Errorf("request latency percentiles not ordered: %+v", st.RequestLatency)
	}

	res, err := client.HTTPClient.Get(client.BaseURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var wire Stats
	if err := json.NewDecoder(res.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Requests != 1 || wire.FlightsStarted != 1 {
		t.Errorf("/statsz: %+v", wire)
	}
	if wire.UptimeMs <= 0 || wire.InFlight != 0 || wire.SyncLogLen == 0 {
		t.Errorf("/statsz gauges: %+v", wire)
	}
	if wire.RequestLatency.Count != 1 || wire.RequestLatency.P50Ms <= 0 {
		t.Errorf("/statsz request latency: %+v", wire.RequestLatency)
	}
}

// TestStatszClusterSection: a coordinator's /statsz carries the fleet
// view — one row per worker with dispatch / re-dispatch / failure
// counters — and the exact JSON field names clients scrape.
func TestStatszClusterSection(t *testing.T) {
	co := cluster.New(cluster.Config{HealthInterval: time.Hour})
	co.Join("http://worker-a:1")
	co.Join("http://worker-b:1")
	_, client := newTestServer(t, Config{Cluster: co, SelfURL: "http://coordinator:1"})

	res, err := client.HTTPClient.Get(client.BaseURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var wire map[string]any
	if err := json.NewDecoder(res.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_ms", "in_flight", "sync_log_len", "cluster", "request_latency"} {
		if _, ok := wire[key]; !ok {
			t.Fatalf("/statsz missing %q: %v", key, wire)
		}
	}
	lat, ok := wire["request_latency"].(map[string]any)
	if !ok {
		t.Fatalf("request_latency section is not an object: %v", wire["request_latency"])
	}
	for _, key := range []string{"count", "window", "p50_ms", "p95_ms", "p99_ms", "max_ms"} {
		if _, present := lat[key]; !present {
			t.Fatalf("request_latency missing %q: %v", key, lat)
		}
	}
	cl, ok := wire["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("cluster section is not an object: %v", wire["cluster"])
	}
	workers, ok := cl["workers"].([]any)
	if !ok || len(workers) != 2 {
		t.Fatalf("cluster.workers: %v", cl["workers"])
	}
	row, ok := workers[0].(map[string]any)
	if !ok {
		t.Fatalf("worker row: %v", workers[0])
	}
	for _, key := range []string{"url", "alive", "dispatched", "redispatched", "failures"} {
		if _, present := row[key]; !present {
			t.Fatalf("worker row missing %q: %v", key, row)
		}
	}
}
