package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// healthzStub is a worker that only speaks /healthz, with a switch.
func healthzStub(t *testing.T, healthy *atomic.Bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "sick", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestProbeStrikesDeadAndResurrects(t *testing.T) {
	var aHealthy, bHealthy atomic.Bool
	aHealthy.Store(true)
	a := healthzStub(t, &aHealthy)
	b := healthzStub(t, &bHealthy) // starts sick

	c := New(Config{HealthStrikes: 2})
	c.Join(a.URL)
	c.Join(b.URL)
	ctx := context.Background()

	// One strike is not death: the counter debounces a single blip.
	c.probeAll(ctx)
	st := c.Stats()
	if st.Alive != 2 {
		t.Fatalf("one failed probe killed a member: %+v", st.Workers)
	}
	// The second consecutive strike is.
	c.probeAll(ctx)
	if st := c.Stats(); st.Alive != 1 {
		t.Fatalf("two strikes did not kill: %+v", st.Workers)
	}
	if live := c.members.live(); len(live) != 1 || live[0] != a.URL {
		t.Fatalf("dead member still routable: %v", live)
	}

	// Recovery resurrects without a re-join.
	bHealthy.Store(true)
	c.probeAll(ctx)
	if st := c.Stats(); st.Alive != 2 {
		t.Fatalf("passing probe did not resurrect: %+v", st.Workers)
	}

	// A healthy member's strike count resets: two blips separated by a
	// passing probe never accumulate to death.
	aHealthy.Store(false)
	c.probeAll(ctx)
	aHealthy.Store(true)
	c.probeAll(ctx)
	aHealthy.Store(false)
	c.probeAll(ctx)
	if st := c.Stats(); st.Alive != 2 {
		t.Fatalf("non-consecutive strikes killed a member: %+v", st.Workers)
	}
}

func TestStartHealthLoop(t *testing.T) {
	var healthy atomic.Bool
	w := healthzStub(t, &healthy) // sick from the start
	c := New(Config{HealthStrikes: 1, HealthInterval: 10 * time.Millisecond})
	c.Join(w.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.StartHealth(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Alive != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("health loop never struck the sick worker: %+v", c.Stats().Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	healthy.Store(true)
	for c.Stats().Alive != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("health loop never resurrected: %+v", c.Stats().Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAnnounceHeartbeat(t *testing.T) {
	var joins atomic.Int64
	c := New(Config{})
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		joins.Add(1)
		c.Join("http://worker:1")
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Announce(ctx, coord.URL, "http://worker:1", 10*time.Millisecond, nil)
	}()

	// The immediate announcement plus at least one heartbeat re-join.
	deadline := time.Now().Add(5 * time.Second)
	for joins.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("announce heartbeat never repeated: %d joins", joins.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if len(c.Stats().Workers) != 1 {
		t.Fatalf("membership after announce: %+v", c.Stats().Workers)
	}
}

func TestAnnounceReportsErrors(t *testing.T) {
	var errs atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Nothing listens here; every announcement fails.
		Announce(ctx, "http://127.0.0.1:1", "http://worker:1", 10*time.Millisecond, func(error) { errs.Add(1) })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for errs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("announce never surfaced its failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
}
