package flexos_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"flexos/internal/cli"
	"flexos/internal/serve"
)

// benchWarmOps sizes the warm-serving benchmark's workloads: the first
// pass measures every configuration once, and only the later, fully
// warm passes are timed, so the op count only moves setup time.
const benchWarmOps = 40

// BenchmarkServeWarm sends warm requests through serve.Server.ServeHTTP
// in process, with no sockets: the 80-point redis-get90 space, the
// 320-point cross-application space, and the 960-point combined@riscv
// attack space. The first warm answer of each request measures nothing,
// so the daemon retains its flight and every timed request is answered
// from it: one iteration is the serving stack over three spaces —
// decode, space lookup, canonical key, report and encode — and runs no
// engine pass. BenchmarkQueryMemoizedSweep and BenchmarkSpaceOrder
// still time the engine's walk over stored records, but no benchmark
// times the serve warm engine pass as a whole (runFlight, the walk,
// StatsOf and the report over an engine Result); in process only
// TestWarmRequestAllocationBudget's allocation count guards it.
func BenchmarkServeWarm(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	reqs := []cli.Request{
		{Scenario: "redis-get90", Ops: benchWarmOps},
		{App: "cross", Requests: benchWarmOps},
		{Scenario: "redis-get90", Ops: benchWarmOps, Attack: "combined", Profile: "riscv"},
	}
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = r.Encode()
	}
	post := func(body []byte) string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cli.ExplorePath, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	// The first pass measures; the second is the first warm answer,
	// whose flight the daemon retains and whose bytes (report and
	// memo-hit statistics) every later one repeats.
	want := make([]string, len(bodies))
	for pass := 0; pass < 2; pass++ {
		for i, body := range bodies {
			want[i] = post(body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, body := range bodies {
			if got := post(body); got != want[k] {
				b.Fatalf("request %d: warm response drifted:\n%s\nwant\n%s", k, got, want[k])
			}
		}
	}
}
