package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"flexos/internal/cli"
)

// TestWarmRequestAllocationBudget pins the host allocations of one
// warm request: an 80-point redis-get90 exploration whose every record
// is stored, sent through Server.ServeHTTP in process, from the
// recorder and request the test builds to the encoded response, in
// fewer than 140 host allocations (it takes 117 on amd64). The engine
// renders no memo key per configuration (the Space keeps each
// workload's keys), the flight shares the run's Result instead of
// copying each decided measurement, and a fully stored pass starts no
// worker goroutine, so what remains is decoding, the run's Result and
// its bookkeeping, and the report (composing a memo key per lookup and
// copying the flight's list took 209).
func TestWarmRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not meaningful under -race")
	}
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := cli.Request{Scenario: "redis-get90", Ops: 40}.Encode()
	post := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cli.ExplorePath, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post() // measures what the pass decides; later requests are warm
	cold := srv.Stats().Evaluated
	const budget = 140
	got := testing.AllocsPerRun(50, post)
	if warm := srv.Stats().Evaluated - cold; warm != 0 {
		t.Fatalf("the warm requests measured %d configurations, want 0", warm)
	}
	if got > budget {
		t.Errorf("a warm request allocates %.0f times, budget %d", got, budget)
	}
}
