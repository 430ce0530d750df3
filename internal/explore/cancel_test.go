package explore

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Cancellation tests: the engine must return an error wrapping
// ErrCanceled promptly, leak no goroutines, and leave a shared Memo in
// a reusable state.

func TestEngineCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	res, err := Engine{}.Run(ctx, Request{
		Space: NewSpace(Fig6Space(fig6Comps)),
		Measure: func(c *Config) (Metrics, error) {
			calls.Add(1)
			return lift(syntheticMeasure)(c)
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled run returned %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not preserved: %v", err)
	}
	if res != nil {
		t.Fatalf("pre-canceled run returned a result: %+v", res)
	}
	if calls.Load() != 0 {
		t.Fatalf("pre-canceled run measured %d configs", calls.Load())
	}
}

func TestEngineDeadlineReturnsErrCanceled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := Engine{}.Run(ctx, Request{
		Space: NewSpace(Fig6Space(fig6Comps)),
		Measure: func(c *Config) (Metrics, error) {
			select {
			case <-ctx.Done():
				return Metrics{}, ctx.Err()
			case <-time.After(50 * time.Millisecond):
			}
			return lift(syntheticMeasure)(c)
		},
		Workers: 4,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline run returned %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline cause not preserved: %v", err)
	}
}

// stableGoroutines polls until the goroutine count settles back to at
// most base (with slack for runtime background goroutines), failing the
// test if it never does.
func stableGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d alive, started with %d", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineCancelMidRunIsPromptLeakFreeAndMemoSafe cancels a run
// mid-flight in every engine mode — they all cancel through the one
// worker pool.
func TestEngineCancelMidRunIsPromptLeakFreeAndMemoSafe(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	for _, sh := range engineShapes(nil) {
		t.Run(sh.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			memo := NewMemo()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			// A slow, cooperative measure: the first two configs return
			// instantly (unblocking the poset roots so the pool fills),
			// the third triggers the cancel, and everything from the
			// third on blocks until the context falls — like a real
			// benchmark watching its context.
			var measured atomic.Int64
			slow := func(c *Config) (Metrics, error) {
				n := measured.Add(1)
				if n <= 2 {
					return lift(syntheticMeasure)(c)
				}
				if n == 3 {
					cancel()
				}
				select {
				case <-ctx.Done():
					return Metrics{}, ctx.Err()
				case <-time.After(10 * time.Second):
				}
				return lift(syntheticMeasure)(c)
			}

			req := sh.req
			req.Space, req.Measure, req.Workers = NewSpace(cfgs), slow, 4
			req.Memo, req.Workload = memo, "w"
			start := time.Now()
			_, err := Engine{}.Run(ctx, req)
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled run returned %v, want ErrCanceled", err)
			}
			// Prompt: nowhere near the 10s a non-cooperative wait would cost.
			if elapsed > 2*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
			// No goroutines outlive Run.
			stableGoroutines(t, base)

			// The memo must be reusable: no entry may be stuck in-flight,
			// and canceled measurements must not have been cached as
			// values. A fresh run against the same memo completes and
			// measures what the aborted run never delivered.
			res, err := Engine{}.Run(context.Background(), Request{
				Space: NewSpace(cfgs), Measure: lift(syntheticMeasure), Workers: 4, Memo: memo, Workload: "w"})
			if err != nil {
				t.Fatalf("rerun against shared memo: %v", err)
			}
			if res.Evaluated+res.MemoHits != res.Total {
				t.Fatalf("rerun accounting: evaluated=%d hits=%d total=%d", res.Evaluated, res.MemoHits, res.Total)
			}
			for i, m := range res.Measurements {
				if want, _ := syntheticMeasure(cfgs[i]); m.Metrics.Throughput != want {
					t.Fatalf("config %d: rerun value %v, want %v (stale canceled entry?)", i, m.Metrics.Throughput, want)
				}
			}
		})
	}
}

// TestEngineCompletedRunSurvivesLateCancel pins the edge where the
// context falls between the last decision and Run's return: a run
// whose every configuration was decided is complete and must be
// returned, not discarded as canceled.
func TestEngineCompletedRunSurvivesLateCancel(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var decided atomic.Int64
	res, err := Engine{}.Run(ctx, Request{
		Space:   NewSpace(cfgs),
		Measure: lift(syntheticMeasure),
		Workers: 4,
		Observe: func(idx int, m *Measurement) {
			// Fires on the coordinating goroutine; canceling on the
			// final decision means the context is already dead when Run
			// wraps up.
			if decided.Add(1) == int64(len(cfgs)) {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("completed run reported %v after late cancel", err)
	}
	if res.Evaluated != len(cfgs) {
		t.Fatalf("completed run evaluated %d/%d", res.Evaluated, len(cfgs))
	}
}

func TestEngineCancelDuringStreamObserve(t *testing.T) {
	// Observe that cancels mid-run (the consumer-break path of
	// Query.Stream): the engine must wind down with ErrCanceled and not
	// call Observe concurrently or after returning.
	cfgs := Fig6Space(fig6Comps)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var observed atomic.Int64
	_, err := Engine{}.Run(ctx, Request{
		Space:   NewSpace(cfgs),
		Measure: lift(shakyMeasure),
		Workers: 4,
		Observe: func(idx int, m *Measurement) {
			if observed.Add(1) == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("observe-cancel run returned %v, want ErrCanceled", err)
	}
	got := observed.Load()
	if got < 5 {
		t.Fatalf("only %d observations before cancel", got)
	}
	after := observed.Load()
	time.Sleep(20 * time.Millisecond)
	if observed.Load() != after {
		t.Fatal("Observe fired after Engine.Run returned")
	}
}
