package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"flexos/internal/cli"
)

// warmServer returns a Server whose store holds every record of one
// 80-point redis-get90 exploration, and a function that sends that
// request through Server.ServeHTTP in process, from the recorder and
// request it builds to the encoded response.
func warmServer(t *testing.T) (*Server, func()) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	body := cli.Request{Scenario: "redis-get90", Ops: 40}.Encode()
	post := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cli.ExplorePath, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post() // measures what the pass decides; later requests are warm
	return srv, post
}

// forgetRetained drops every retained flight, so the next request of a
// stored key runs a warm engine pass. It allocates nothing.
func (s *Server) forgetRetained() {
	s.mu.Lock()
	for _, f := range s.retained {
		delete(s.flights, f.key)
	}
	clear(s.retained)
	s.retained, s.retainedConfigs = s.retained[:0], 0
	s.mu.Unlock()
}

// TestWarmRequestAllocationBudget pins the host allocations of one
// warm engine pass: the first request of a key whose every record is
// stored, an 80-point redis-get90 exploration, in at most 140 host
// allocations (it takes 117 on amd64). The engine renders no memo key
// per configuration (the Space keeps each workload's keys), the flight
// shares the run's Result instead of copying each decided measurement,
// and a fully stored pass starts no worker goroutine, so what remains
// is decoding, the run's Result and its bookkeeping, and the report
// (composing a memo key per lookup and copying the flight's list took
// 209).
func TestWarmRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not meaningful under -race")
	}
	srv, post := warmServer(t)
	cold := srv.Stats()
	const budget = 140
	got := testing.AllocsPerRun(50, func() {
		srv.forgetRetained()
		post()
	})
	st := srv.Stats()
	if warm := st.Evaluated - cold.Evaluated; warm != 0 {
		t.Fatalf("the warm requests measured %d configurations, want 0", warm)
	}
	if st.RetainedHits != 0 || st.FlightsStarted != cold.FlightsStarted+51 {
		t.Fatalf("the warm requests did not each run an engine pass: %+v", st)
	}
	if got > budget {
		t.Errorf("a warm engine pass allocates %.0f times, budget %d", got, budget)
	}
}

// TestRetainedRequestAllocationBudget pins the host allocations of a
// repeat answered by a retained flight: the same request, rendered from
// the retained Result without an engine pass, in at most 85 host
// allocations (it takes 73 on amd64): decoding the request into its
// query, the canonical key, the report and its encoding.
func TestRetainedRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not meaningful under -race")
	}
	srv, post := warmServer(t)
	post() // the warm pass, which is retained
	before := srv.Stats()
	const budget = 85
	got := testing.AllocsPerRun(50, post)
	st := srv.Stats()
	if st.FlightsStarted != before.FlightsStarted || st.RetainedHits != before.RetainedHits+51 {
		t.Fatalf("the repeats were not all answered by the retained flight: %+v", st)
	}
	if got > budget {
		t.Errorf("a retained repeat allocates %.0f times, budget %d", got, budget)
	}
}
