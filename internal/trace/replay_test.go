package trace_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flexos/internal/cli"
	"flexos/internal/serve"
	"flexos/internal/trace"
)

// TestReplayDeterministicAcrossConns is the determinism property of
// the issue: for a fixed (trace, seed, speedup), replay issues a
// byte-identical request sequence and collects identical exploration
// responses at any -conns. One daemon serves every replay — its memo
// only changes who computes, never what is answered.
func TestReplayDeterministicAcrossConns(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	tr := smallTrace(t, 42)
	sched := trace.BuildSchedule(tr, trace.ScheduleOpts{Speedup: 1000})
	var reports []*trace.Report
	for _, conns := range []int{1, 3, 8} {
		client := &cli.Client{BaseURL: ts.URL, HTTPClient: ts.Client(), Retry: cli.DefaultRetry}
		rep, err := trace.Replay(context.Background(), tr.Name, sched, trace.ReplayOpts{
			Client: client, Conns: conns, ClosedLoop: true, Seed: tr.Seed,
		})
		if err != nil {
			t.Fatalf("conns=%d: %v", conns, err)
		}
		if rep.Failed != 0 {
			t.Fatalf("conns=%d: %d failed requests: %v", conns, rep.Failed, rep.Errors)
		}
		if rep.Issued != len(sched) || rep.Ok != len(sched) {
			t.Fatalf("conns=%d: issued %d ok %d, want %d", conns, rep.Issued, rep.Ok, len(sched))
		}
		if rep.Latency.Count != len(sched) || rep.Latency.P50 <= 0 || rep.Latency.P50 > rep.Latency.P99 {
			t.Fatalf("conns=%d: broken latency summary %+v", conns, rep.Latency)
		}
		if len(rep.Phases) != len(tr.Phases()) {
			t.Fatalf("conns=%d: %d phase reports for %d phases", conns, len(rep.Phases), len(tr.Phases()))
		}
		reports = append(reports, rep)
	}
	for _, rep := range reports[1:] {
		if rep.ResponseSum != reports[0].ResponseSum {
			t.Fatalf("response digest differs across conns: %s (conns=%d) vs %s (conns=%d)",
				reports[0].ResponseSum, reports[0].Conns, rep.ResponseSum, rep.Conns)
		}
	}

	// An open-loop replay of the same schedule agrees too: pacing
	// changes when requests go out, never what comes back.
	client := &cli.Client{BaseURL: ts.URL, HTTPClient: ts.Client(), Retry: cli.DefaultRetry}
	open, err := trace.Replay(context.Background(), tr.Name, sched, trace.ReplayOpts{
		Client: client, Conns: 2, Seed: tr.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if open.Mode != "open" || open.Failed != 0 || open.ResponseSum != reports[0].ResponseSum {
		t.Fatalf("open-loop replay diverged: mode=%s failed=%d sum=%s want %s",
			open.Mode, open.Failed, open.ResponseSum, reports[0].ResponseSum)
	}
}

// TestReplayCountsFailures points a replay at a dead endpoint and
// checks failures are counted, sampled and non-fatal.
func TestReplayCountsFailures(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler()) // 404 for every path
	defer ts.Close()
	tr := smallTrace(t, 9)
	sched := trace.BuildSchedule(tr, trace.ScheduleOpts{DurationMs: 2500})
	client := &cli.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	rep, err := trace.Replay(context.Background(), tr.Name, sched, trace.ReplayOpts{
		Client: client, Conns: 2, ClosedLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != len(sched) || rep.Ok != 0 {
		t.Fatalf("failed=%d ok=%d, want all %d failed", rep.Failed, rep.Ok, len(sched))
	}
	if len(rep.Errors) == 0 {
		t.Fatal("no error samples")
	}
	for _, ph := range rep.Phases {
		if ph.Failed != ph.Requests {
			t.Fatalf("phase %s: failed=%d requests=%d", ph.Phase, ph.Failed, ph.Requests)
		}
	}
}

// TestReplayOpenLoopCountsQueueingDelay pins the open-loop latency
// clock: a request due while every connection is busy waits in the
// queue, and that wait is part of its latency. One connection, a
// handler that takes serviceMs, two requests due at 0 ms — the second
// one's latency must include the first one's service time.
func TestReplayOpenLoopCountsQueueingDelay(t *testing.T) {
	const serviceMs = 100
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(serviceMs * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"report":"ok\n"}`)
	}))
	defer ts.Close()
	sched := []trace.Scheduled{
		{Index: 0, AtMs: 0, Phase: "p", Request: cli.Request{App: "redis"}},
		{Index: 1, AtMs: 0, Phase: "p", Request: cli.Request{App: "redis"}},
	}
	client := &cli.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	rep, err := trace.Replay(context.Background(), "queue", sched, trace.ReplayOpts{Client: client, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok != 2 {
		t.Fatalf("ok=%d failed=%d %v, want 2 ok", rep.Ok, rep.Failed, rep.Errors)
	}
	if rep.Latency.Max < 2*serviceMs {
		t.Fatalf("max latency %.1f ms, want >= %d ms: the queued request's wait went uncounted",
			rep.Latency.Max, 2*serviceMs)
	}
}
