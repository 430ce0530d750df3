package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/cluster"
	"flexos/internal/explore"
)

// Retained flights: a finished pass that measured nothing stays in the
// flight table and answers repeats of its key. These tests hold what
// it serves to what a fresh engine pass over the same records returns,
// byte for byte, and check which flights are kept and how many.

// served is one in-process response: its body, whether the server
// marked it coalesced, and its run statistics (from the final document
// of a stream).
type served struct {
	body      string
	coalesced bool
	stats     cli.RunStats
}

// send posts req to srv through ServeHTTP, in process.
func send(t *testing.T, srv *Server, req cli.Request) served {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cli.ExplorePath, bytes.NewReader(req.Encode())))
	body := rec.Body.String()
	if rec.Code != http.StatusOK {
		t.Fatalf("%+v: status %d: %s", req, rec.Code, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var last cli.Response
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%+v: final document: %v", req, err)
	}
	if last.Error != "" || last.Stats == nil {
		t.Fatalf("%+v: final document carries no statistics: %s", req, lines[len(lines)-1])
	}
	return served{body: body, coalesced: rec.Header().Get("X-Flexos-Coalesced") == "true", stats: *last.Stats}
}

// sendUntilRetained repeats req until a retained flight answers it,
// and returns that response. It fails unless that answer started no
// engine pass.
func sendUntilRetained(t *testing.T, srv *Server, req cli.Request) served {
	t.Helper()
	for try := 0; try < 20; try++ {
		before := srv.Stats()
		got := send(t, srv, req)
		after := srv.Stats()
		if after.RetainedHits == before.RetainedHits {
			continue
		}
		if after.FlightsStarted != before.FlightsStarted {
			t.Fatalf("%+v: a retained answer started %d engine passes", req, after.FlightsStarted-before.FlightsStarted)
		}
		if got.coalesced {
			t.Fatalf("%+v: a retained answer is marked coalesced", req)
		}
		return got
	}
	t.Fatalf("%+v: no retained flight answered 20 repeats; stats %+v", req, srv.Stats())
	return served{}
}

// freshCopy returns a new Server whose store holds a copy of every
// record of srv's store.
func freshCopy(t *testing.T, srv *Server) *Server {
	t.Helper()
	cp, err := New(Config{Workers: srv.cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cp.Close() })
	recs, _, _ := srv.st.Page(0, srv.st.Len())
	cp.ingest(recs)
	return cp
}

// TestRetainedResponsesMatchFreshServer is the differential test: for
// a matrix of request shapes, complete and streamed, at 1 and 8
// workers, the response a retained flight serves equals, byte for byte
// and statistics included, what a fresh Server over a copy of the same
// store answers from its own engine pass.
func TestRetainedResponsesMatchFreshServer(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reqs := []cli.Request{
		{Scenario: "redis-get90", Ops: 40},
		{Scenario: "redis-get90", Ops: 40, Pareto: true},
		{App: "redis", Requests: 40, Budgets: []string{"400000"}, Verbose: true},
		{Scenario: "redis-get90", Ops: 40, Shard: "1/3", IncludeRecords: true},
		{Scenario: "redis-get90", Ops: 40, Budgets: []string{"throughput>=300000"}, MeasureBudget: 12},
		{Scenario: "nginx-keep75", Ops: 40, Exhaustive: true, MeasureBudget: 10, Seed: 3},
		{Scenario: "redis-get50", Ops: 40, DeltaOnly: true},
		{Scenario: "redis-get50", Ops: 40, Budgets: []string{"throughput>=999999999"}}, // infeasible
		{App: "cross", Requests: 20, Shard: "0/4"},
	}
	for _, base := range reqs {
		for _, stream := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				req := base
				req.Stream, req.Workers = stream, workers
				got := sendUntilRetained(t, srv, req)
				if got.stats.Evaluated != 0 {
					t.Fatalf("%+v: a retained answer reports %d fresh measurements", req, got.stats.Evaluated)
				}
				fresh := freshCopy(t, srv)
				want := send(t, fresh, req)
				if st := fresh.Stats(); st.FlightsStarted != 1 || st.RetainedHits != 0 {
					t.Fatalf("%+v: the fresh server did not run its own pass: %+v", req, st)
				}
				if got.body != want.body {
					t.Errorf("%+v: retained response differs from a fresh pass over the same store:\n--- retained\n%s--- fresh\n%s",
						req, got.body, want.body)
				}
			}
		}
	}
}

// TestRetainedSequenceCountsOnePassPerChange: cold, first warm, and
// retained answers of one key report evaluated N, 0 and 0; only the
// first two start flights, and the retention gauges hold the warm one.
func TestRetainedSequenceCountsOnePassPerChange(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := cli.Request{Scenario: "redis-get90", Ops: 40}
	type step struct {
		evaluated                 bool
		flights, hits, kept, cfgs int64
	}
	want := []step{
		{evaluated: true, flights: 1, hits: 0, kept: 0, cfgs: 0},
		{evaluated: false, flights: 2, hits: 0, kept: 1, cfgs: 80},
		{evaluated: false, flights: 2, hits: 1, kept: 1, cfgs: 80},
		{evaluated: false, flights: 2, hits: 2, kept: 1, cfgs: 80},
	}
	var bodies []string
	for i, w := range want {
		got := send(t, srv, req)
		bodies = append(bodies, got.body)
		st := srv.Stats()
		if (got.stats.Evaluated > 0) != w.evaluated {
			t.Errorf("request %d: evaluated %d", i, got.stats.Evaluated)
		}
		if got.coalesced || st.Coalesced != 0 {
			t.Errorf("request %d: counted as coalesced (header %v, counter %d)", i, got.coalesced, st.Coalesced)
		}
		if st.FlightsStarted != w.flights || st.Completed != w.flights || st.RetainedHits != w.hits ||
			int64(st.RetainedFlights) != w.kept || int64(st.RetainedConfigs) != w.cfgs {
			t.Errorf("request %d: stats %+v, want flights %d, retained hits %d, retained %d flights of %d configurations",
				i, st, w.flights, w.hits, w.kept, w.cfgs)
		}
		if st.Requests != int64(i+1) || st.InFlight != 0 || st.Subscribers != 0 {
			t.Errorf("request %d: requests %d, in flight %d, subscribers %d", i, st.Requests, st.InFlight, st.Subscribers)
		}
	}
	for i := 2; i < len(bodies); i++ {
		if bodies[i] != bodies[1] {
			t.Errorf("retained answer %d differs from the warm pass it repeats", i)
		}
	}
}

// TestRetainableOutcomes pins which finished passes may be retained:
// complete or infeasible ones that measured nothing, and, in a delta
// run, that joined no measurement either.
func TestRetainableOutcomes(t *testing.T) {
	warm := &flexos.ExploreResult{Total: 80, MemoHits: 80}
	measured := &flexos.ExploreResult{Total: 80, Evaluated: 3, MemoHits: 77}
	skipped := &flexos.ExploreResult{Total: 80, Skipped: 80}
	for _, tc := range []struct {
		name  string
		res   *flexos.ExploreResult
		err   error
		delta bool
		want  bool
	}{
		{"warm", warm, nil, false, true},
		{"warm infeasible", warm, fmt.Errorf("run: %w", flexos.ErrNoFeasible), false, true},
		{"measured", measured, nil, false, false},
		{"measured infeasible", measured, flexos.ErrNoFeasible, false, false},
		{"canceled", nil, fmt.Errorf("serve: %w", explore.ErrCanceled), false, false},
		{"failed", nil, &explore.MeasureError{Err: errors.New("boom")}, false, false},
		{"failed with a result", warm, errors.New("boom"), false, false},
		{"delta, all stored", skipped, nil, true, true},
		{"delta, joined a measurement", warm, nil, true, false},
	} {
		if got := retainable(tc.res, tc.err, tc.delta); got != tc.want {
			t.Errorf("%s: retainable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMeasuredAndCanceledFlightsAreNotRetained: a pass that measured
// leaves the table when it finishes, and so does a warm pass whose
// only subscriber gave up; the next request of either key starts a new
// engine pass.
func TestMeasuredAndCanceledFlightsAreNotRetained(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := cli.Request{Scenario: "redis-get90", Ops: 40}
	if got := send(t, srv, req); got.stats.Evaluated == 0 {
		t.Fatal("the cold request measured nothing; the test needs a measuring pass")
	}
	if st := srv.Stats(); st.RetainedFlights != 0 || len(srv.flights) != 0 {
		t.Fatalf("a measuring pass was kept: %+v", st)
	}

	// A warm pass, canceled: gate it until its only subscriber times out.
	gate := make(chan struct{})
	srv.onFlightStart = func(string) { <-gate }
	timed := req
	timed.TimeoutMs = 100
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cli.ExplorePath, bytes.NewReader(timed.Encode())))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d: %s", rec.Code, rec.Body)
	}
	close(gate)
	waitStats(t, srv, "the orphaned flight to cancel", func(st Stats) bool { return st.Canceled == 1 })
	srv.onFlightStart = nil
	if st := srv.Stats(); st.RetainedFlights != 0 {
		t.Fatalf("a canceled pass was kept: %+v", st)
	}

	flights := srv.Stats().FlightsStarted
	if got := send(t, srv, req); got.stats.Evaluated != 0 {
		t.Fatalf("the warm retry measured %d configurations", got.stats.Evaluated)
	}
	if st := srv.Stats(); st.FlightsStarted != flights+1 || st.RetainedFlights != 1 || st.RetainedHits != 0 {
		t.Fatalf("the retry after a canceled pass: %+v", st)
	}
}

// checkBounds fails if the retention gauges exceed their bounds.
func checkBounds(t *testing.T, st Stats) {
	if st.RetainedFlights > maxRetainedFlights || st.RetainedConfigs > maxRetainedConfigs {
		t.Errorf("retained %d flights of %d configurations, bounds %d and %d",
			st.RetainedFlights, st.RetainedConfigs, maxRetainedFlights, maxRetainedConfigs)
	}
}

// budgetVariants returns n requests over base's stored records that
// differ only in their throughput bound, so each is a distinct key.
func budgetVariants(base cli.Request, n int) []cli.Request {
	out := make([]cli.Request, n)
	for k := range out {
		r := base
		r.Budgets = []string{fmt.Sprint(100000 + 997*k)}
		out[k] = r
	}
	return out
}

// sendAll sends every request from four goroutines at once, checking
// the retention bounds after each answer.
func sendAll(t *testing.T, srv *Server, reqs []cli.Request) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += 4 {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cli.ExplorePath, bytes.NewReader(reqs[i].Encode())))
				if rec.Code != http.StatusOK {
					t.Errorf("%+v: status %d", reqs[i], rec.Code)
				}
				checkBounds(t, srv.Stats())
			}
		}(g)
	}
	wg.Wait()
}

// TestRetentionStaysWithinBounds sends more distinct warm keys than
// either bound admits, concurrently: the gauges never exceed the
// bounds, the least recently used flight is the one evicted, and a
// repeat of an evicted key runs a new engine pass.
func TestRetentionStaysWithinBounds(t *testing.T) {
	t.Run("flights", func(t *testing.T) {
		srv, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		base := cli.Request{Scenario: "redis-get90", Ops: 40}
		all := base
		all.Exhaustive = true
		send(t, srv, all) // stores every record the variants read
		reqs := budgetVariants(base, maxRetainedFlights+8)
		sendAll(t, srv, reqs)
		st := srv.Stats()
		if st.RetainedFlights != maxRetainedFlights || st.RetainedConfigs != maxRetainedFlights*80 {
			t.Fatalf("after %d warm keys: %+v", len(reqs), st)
		}

		// Least recently used out: touch the oldest survivor, then add a
		// new key; the next-oldest goes, the touched one stays.
		srv.mu.Lock()
		oldest, next := srv.retained[0].creq, srv.retained[1].creq
		srv.mu.Unlock()
		for i, tc := range []struct {
			req      cli.Request
			retained bool
		}{
			{oldest, true}, // the touch
			{budgetVariants(base, maxRetainedFlights+9)[maxRetainedFlights+8], false},
			{oldest, true},
			{next, false},
		} {
			before := srv.Stats()
			send(t, srv, tc.req)
			after := srv.Stats()
			hits, passes := after.RetainedHits-before.RetainedHits, after.FlightsStarted-before.FlightsStarted
			if want := tc.retained; (hits == 1) != want || (passes == 0) != want {
				t.Fatalf("step %d: %d retained answers and %d engine passes, want a retained answer: %v",
					i, hits, passes, want)
			}
		}
		checkBounds(t, srv.Stats())
	})
	t.Run("configs", func(t *testing.T) {
		srv, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		base := cli.Request{App: "cross", Requests: 20}
		all := base
		all.Exhaustive = true
		send(t, srv, all)
		sendAll(t, srv, budgetVariants(base, maxRetainedConfigs/320+8))
		st := srv.Stats()
		if want := maxRetainedConfigs / 320; st.RetainedFlights != want || st.RetainedConfigs != want*320 {
			t.Fatalf("320-point keys: %d flights of %d configurations retained, want %d of %d",
				st.RetainedFlights, st.RetainedConfigs, want, want*320)
		}
	})
	t.Run("shard", func(t *testing.T) {
		// A shard's Result pins the whole Space it was cut from, so a
		// retained shard counts that Space, not its slice.
		srv, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		req := cli.Request{Scenario: "redis-get90", Ops: 40, Shard: "1/3"}
		send(t, srv, req)
		sendUntilRetained(t, srv, req)
		if st := srv.Stats(); st.RetainedFlights != 1 || st.RetainedConfigs != 80 {
			t.Fatalf("a retained third of an 80-point space: %d flights of %d configurations, want 1 of 80",
				st.RetainedFlights, st.RetainedConfigs)
		}
	})
}

// TestRetainedRepeatThroughCoordinatorDispatchesNothing: through a
// two-worker coordinator, the first pass of a key the fleet measures
// is itself retained — gathered records are backing hits, so it
// evaluated nothing — and a repeat answered by it starts no pass,
// reaches no worker (no gather, no shard) and repeats its bytes,
// complete and streamed.
func TestRetainedRepeatThroughCoordinatorDispatchesNothing(t *testing.T) {
	co := cluster.New(cluster.Config{HealthInterval: time.Hour})
	var workers []*Server
	for i := 0; i < 2; i++ {
		w, client := newTestServer(t, Config{Workers: 2})
		workers = append(workers, w)
		co.Join(client.BaseURL)
	}
	coord, err := New(Config{Workers: 2, Cluster: co})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for i, stream := range []bool{false, true} {
		req := cli.Request{Scenario: "redis-get90", Ops: 40 + i, Stream: stream}
		before, gathers := coord.Stats(), co.Stats().Gathers
		first := send(t, coord, req)
		after := coord.Stats()
		if first.stats.Evaluated != 0 || co.Stats().Gathers != gathers+1 {
			t.Fatalf("%+v: the first pass evaluated %d and gathered %d times, want 0 and once",
				req, first.stats.Evaluated, co.Stats().Gathers-gathers)
		}
		if after.FlightsStarted != before.FlightsStarted+1 || after.RetainedFlights != before.RetainedFlights+1 {
			t.Fatalf("%+v: the first pass started %d engine passes and retained %d flights, want 1 and 1",
				req, after.FlightsStarted-before.FlightsStarted, after.RetainedFlights-before.RetainedFlights)
		}

		fleet, workerReqs := co.Stats(), make([]int64, len(workers))
		for i, w := range workers {
			workerReqs[i] = w.Stats().Requests
		}
		before = coord.Stats()
		got := send(t, coord, req)
		after = coord.Stats()
		if after.RetainedHits != before.RetainedHits+1 || after.FlightsStarted != before.FlightsStarted {
			t.Fatalf("%+v: the repeat made %d retained answers and started %d engine passes, want 1 and 0",
				req, after.RetainedHits-before.RetainedHits, after.FlightsStarted-before.FlightsStarted)
		}
		if got.body != first.body {
			t.Errorf("%+v: retained answer differs from the pass it retains:\n--- retained\n%s--- pass\n%s", req, got.body, first.body)
		}
		if now := co.Stats(); now.Gathers != fleet.Gathers || now.Shards != fleet.Shards {
			t.Errorf("%+v: the retained repeat fanned out: gathers %d -> %d, shards %d -> %d",
				req, fleet.Gathers, now.Gathers, fleet.Shards, now.Shards)
		}
		for i, w := range workers {
			if n := w.Stats().Requests; n != workerReqs[i] {
				t.Errorf("%+v: worker %d received %d requests for the retained repeat", req, i, n-workerReqs[i])
			}
		}
	}
}
