// Benchmarks for the trace-driven serving path: synthesizing a traffic
// trace, deriving its issue schedule, and replaying it closed-loop
// against an in-process flexos-serve daemon. These are the numbers the
// loadgen CI job measures over real sockets; here they run over
// httptest so benchguard can gate the stack next to the engine
// benchmarks.
package flexos_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"flexos/internal/cli"
	"flexos/internal/serve"
	"flexos/internal/trace"
)

// benchTraceSpan is the trace-time span the serve-trace benchmarks
// synthesize: long enough to cross all three diurnal phases, short
// enough that one replay is tens of requests, not thousands.
const benchTraceSpan = 30_000 // ms

// BenchmarkServeTraceSynthesize measures trace synthesis alone:
// turning a phase schedule into a checksummed, normalized event
// sequence. Pure CPU — no server involved. A full hour of trace time
// (several thousand events) keeps one iteration in the milliseconds,
// well above timer noise.
func BenchmarkServeTraceSynthesize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := trace.Synthesize(trace.DiurnalSpec(42, 3_600_000))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(tr.Events)), "events")
		}
	}
}

// BenchmarkServeTraceReplay replays the 30s diurnal trace closed-loop
// against an in-process daemon over httptest sockets. The first
// iteration pays for the explorations; after that the daemon's memo
// answers everything, so steady-state time is the serving stack itself:
// HTTP, request decode, memo lookup, response encode, and the replay
// harness's scheduling and latency accounting.
func BenchmarkServeTraceReplay(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	tr, err := trace.Synthesize(trace.DiurnalSpec(42, benchTraceSpan))
	if err != nil {
		b.Fatal(err)
	}
	sched := trace.BuildSchedule(tr, trace.ScheduleOpts{Speedup: 1000})
	client := &cli.Client{BaseURL: ts.URL, HTTPClient: ts.Client(), Retry: cli.DefaultRetry}
	opts := trace.ReplayOpts{Client: client, Conns: 4, ClosedLoop: true, Seed: tr.Seed}

	// Warm the daemon's memo so every timed iteration measures the
	// serving stack, not the first exploration of each configuration.
	warm, err := trace.Replay(context.Background(), tr.Name, sched, opts)
	if err != nil {
		b.Fatal(err)
	}
	if warm.Failed > 0 {
		b.Fatalf("%d failed requests during warmup: %v", warm.Failed, warm.Errors)
	}
	b.ResetTimer()
	var rps float64
	for i := 0; i < b.N; i++ {
		rep, err := trace.Replay(context.Background(), tr.Name, sched, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed > 0 {
			b.Fatalf("%d failed requests: %v", rep.Failed, rep.Errors)
		}
		if rep.ResponseSum != warm.ResponseSum {
			b.Fatalf("response digest drifted: %s vs %s", rep.ResponseSum, warm.ResponseSum)
		}
		rps = rep.Rps
	}
	b.ReportMetric(rps, "req/s")
	b.ReportMetric(float64(len(sched)), "requests")
}
