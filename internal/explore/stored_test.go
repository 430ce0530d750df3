package explore_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexos"
	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/scenario"
)

// Stored measurements are resolved on the engine's coordinating
// goroutine: a listed configuration whose record the memo's backing
// holds is filled before the worker pool starts, and only the misses
// reach the pool. These tests hold that path to the pool path it
// bypasses, which still resolves every stored hit when the backing's
// first lookup of a key misses.

// pooledBacking is a MapBacking whose first Load of each key misses
// and whose later Loads answer normally. The coordinator's lookup is a
// key's first Load in a run, so every stored record reaches the pool,
// whose Memo.do loads it again and fills it as a hit: the engine's
// path before stored records were resolved on the coordinator.
type pooledBacking struct {
	*exploretest.MapBacking
	mu   sync.Mutex
	seen map[string]bool
}

func (b *pooledBacking) Load(key string) (explore.Metrics, bool) {
	b.mu.Lock()
	first := !b.seen[key]
	b.seen[key] = true
	b.mu.Unlock()
	if first {
		return explore.Metrics{}, false
	}
	return b.MapBacking.Load(key)
}

// seeded returns a counting backing holding the given records.
func seeded(records map[string]explore.Metrics) *exploretest.MapBacking {
	b := exploretest.NewMapBacking()
	for k, m := range records {
		b.Put(k, m)
	}
	return b
}

// storedShape is one engine mode the differential test runs.
type storedShape struct {
	name         string
	prune, delta bool
	budget       int
	seed         int64
	constraints  []explore.Constraint
}

func storedShapes(floor explore.Constraint, n int) []storedShape {
	cs := []explore.Constraint{floor}
	return []storedShape{
		{name: "exhaustive", constraints: cs},
		{name: "pruned", prune: true, constraints: cs},
		{name: "sweep", prune: true, budget: max(n/4, 1), constraints: cs},
		{name: "halving", budget: max(n/5, 1), seed: 3, constraints: cs},
		{name: "delta", delta: true},
	}
}

// storedRun is what one engine run exposes: the result, the error and
// the Observe indices in call order.
type storedRun struct {
	res      *explore.Result
	err      error
	observed []int
}

func runStored(t *testing.T, sp *explore.Space, measure explore.MeasureMetrics, sh storedShape, workers int, b explore.Backing) storedRun {
	t.Helper()
	var out storedRun
	req := explore.Request{
		Space: sp, Measure: measure, Workers: workers, Prune: sh.prune,
		Constraints: sh.constraints, MeasureBudget: sh.budget, Seed: sh.seed,
		DeltaOnly: sh.delta, Memo: explore.NewBackedMemo(b), Workload: "w",
		Observe: func(idx int, _ *explore.Measurement) { out.observed = append(out.observed, idx) },
	}
	out.res, out.err = explore.Engine{}.Run(context.Background(), req)
	if out.err != nil && !errors.Is(out.err, explore.ErrNoFeasible) {
		t.Fatalf("engine run: %v", out.err)
	}
	return out
}

// streamStored runs the same request through Query.Stream over a
// fresh copy of the backing and records the yielded sequence.
func streamStored(t *testing.T, sp *explore.Space, measure explore.MeasureMetrics, sh storedShape, workers int, b explore.Backing) ([]string, *explore.Result) {
	t.Helper()
	q := flexos.NewSpaceQuery(sp).Measure(measure).Workers(workers).Prune(sh.prune).
		Namespace("w").Memo(explore.NewBackedMemo(b))
	for _, c := range sh.constraints {
		q.Constrain(c.Metric, c.Op, c.Bound)
	}
	if sh.budget > 0 {
		q.MeasureBudget(sh.budget).Seed(sh.seed)
	}
	if sh.delta {
		q.DeltaOnly()
	}
	seq, final := q.Stream(context.Background())
	var lines []string
	for cfg, m := range seq {
		lines = append(lines, cfg.Key()+" "+m.String())
	}
	res, err := final()
	if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
		t.Fatalf("stream run: %v", err)
	}
	return lines, res
}

// sameResult compares every field a Result reports.
func sameResult(t *testing.T, what string, got, want *explore.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Measurements, want.Measurements) {
		t.Fatalf("%s: measurements differ:\n%s\nwant\n%s", what, exploretest.RenderResult(got), exploretest.RenderResult(want))
	}
	if !reflect.DeepEqual(got.Safest, want.Safest) {
		t.Fatalf("%s: safest %v, want %v", what, got.Safest, want.Safest)
	}
	type counters struct{ Evaluated, Total, MemoHits, Measured, Skipped int }
	g := counters{got.Evaluated, got.Total, got.MemoHits, got.Measured, got.Skipped}
	w := counters{want.Evaluated, want.Total, want.MemoHits, want.Measured, want.Skipped}
	if g != w {
		t.Fatalf("%s: counters %+v, want %+v", what, g, w)
	}
}

// indexSet sorts a copy of the observed indices and checks each
// configuration was observed at most once.
func indexSet(t *testing.T, what string, observed []int) []int {
	t.Helper()
	s := append([]int(nil), observed...)
	sort.Ints(s)
	for k := 1; k < len(s); k++ {
		if s[k] == s[k-1] {
			t.Fatalf("%s: configuration %d observed twice", what, s[k])
		}
	}
	return s
}

// medianFloor is a prunable throughput floor at the median throughput of a
// space, so pruned and budgeted runs decide both sides of it.
func medianFloor(cfgs []*explore.Config, measure explore.MeasureMetrics) explore.Constraint {
	vals := make([]float64, len(cfgs))
	for i, c := range cfgs {
		mx, _ := measure(c)
		vals[i] = mx.Throughput
	}
	sort.Float64s(vals)
	return explore.Constraint{Metric: scenario.MetricThroughput, Op: explore.AtLeast, Bound: vals[len(vals)/2]}
}

// TestStoredHitsMatchThePoolPath runs every shipped space in every
// engine mode at workers 1 and 8 over a backing holding every record
// and one holding every other record, once with stored hits resolved
// on the coordinator and once with all of them sent down the pool.
// The results, the Observe index sets and the Query.Stream sequences
// must be identical.
func TestStoredHitsMatchThePoolPath(t *testing.T) {
	spaces := exploretest.ShippedSpaces()
	names := make([]string, 0, len(spaces))
	for name := range spaces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfgs := spaces[name]
		measure := exploretest.SurvivalMeasure(rand.New(rand.NewSource(int64(len(cfgs)))))
		sp := explore.NewSpace(cfgs)
		full := make(map[string]explore.Metrics, len(cfgs))
		half := make(map[string]explore.Metrics, len(cfgs)/2)
		for i, c := range cfgs {
			mx, _ := measure(c)
			k := explore.MemoKey("w", c)
			full[k] = mx
			if i%2 == 0 {
				half[k] = mx
			}
		}
		for _, sh := range storedShapes(medianFloor(cfgs, measure), len(cfgs)) {
			for _, pre := range []struct {
				name    string
				records map[string]explore.Metrics
			}{{"full", full}, {"half", half}} {
				for _, workers := range []int{1, 8} {
					what := fmt.Sprintf("%s/%s/%s/workers=%d", name, sh.name, pre.name, workers)
					// A delta run skips a key its coordinator lookup
					// finds stored, but fills one the pool finds stored
					// after a first-Load miss; the pooled backing is
					// warmed past its first Load there so that stored
					// keys are skipped as on a plain backing.
					pooled := func() explore.Backing {
						b := &pooledBacking{MapBacking: seeded(pre.records), seen: map[string]bool{}}
						if sh.delta {
							for k := range pre.records {
								b.seen[k] = true
							}
						}
						return b
					}
					inline := runStored(t, sp, measure, sh, workers, seeded(pre.records))
					pool := runStored(t, sp, measure, sh, workers, pooled())
					if (inline.err == nil) != (pool.err == nil) {
						t.Fatalf("%s: error %v, pool path %v", what, inline.err, pool.err)
					}
					sameResult(t, what, inline.res, pool.res)
					if got, want := indexSet(t, what, inline.observed), indexSet(t, what, pool.observed); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: observed %v, pool path %v", what, got, want)
					}
					inStream, inRes := streamStored(t, sp, measure, sh, workers, seeded(pre.records))
					poolStream, poolRes := streamStored(t, sp, measure, sh, workers, pooled())
					if !reflect.DeepEqual(inStream, poolStream) {
						t.Fatalf("%s: stream\n%v\npool path\n%v", what, inStream, poolStream)
					}
					sameResult(t, what+" (stream)", inRes, poolRes)
					sameResult(t, what+" (stream vs run)", inRes, inline.res)
				}
			}
		}
	}
}

// keyLoads is a MapBacking that also counts the Loads of each key.
type keyLoads struct {
	*exploretest.MapBacking
	mu    sync.Mutex
	loads map[string]int
}

func (b *keyLoads) Load(key string) (explore.Metrics, bool) {
	b.mu.Lock()
	b.loads[key]++
	b.mu.Unlock()
	return b.MapBacking.Load(key)
}

// TestStoredLookupCostsAMissTwoLoads pins the backing traffic: a stored
// hit costs one Load, the coordinator's, and a miss two, the
// coordinator's and the one Memo.do makes after claiming the key. A
// delta run over the same records pays the same: each stored key one
// Load, ending Skipped, and each absent key two.
func TestStoredLookupCostsAMissTwoLoads(t *testing.T) {
	cfgs := explore.CrossAppSpace(nil,
		[4]string{"libredis", "newlib", "uksched", "lwip"}, [4]string{"libnginx", "newlib", "uksched", "lwip"})
	measure := exploretest.VectorMeasure(rand.New(rand.NewSource(1)))
	sp := explore.NewSpace(cfgs)
	halfStored := func() *keyLoads {
		b := &keyLoads{MapBacking: exploretest.NewMapBacking(), loads: map[string]int{}}
		for i, c := range cfgs {
			if i%2 == 0 {
				mx, _ := measure(c)
				b.Put(explore.MemoKey("w", c), mx)
			}
		}
		return b
	}
	for _, workers := range []int{1, 8} {
		b := halfStored()
		res, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space: sp, Measure: measure, Workers: workers, Memo: explore.NewBackedMemo(b), Workload: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Measured == 0 || b.Hits() == 0 {
			t.Fatalf("workers=%d: measured %d, stored hits %d: want both paths exercised", workers, res.Measured, b.Hits())
		}
		// Every Load either hits a stored record (once per record) or
		// belongs to a miss.
		if max := b.Hits() + 2*res.Measured; b.Loads() > max {
			t.Fatalf("workers=%d: %d loads for %d stored hits and %d misses, want at most %d",
				workers, b.Loads(), b.Hits(), res.Measured, max)
		}

		b = halfStored()
		stored := b.Snapshot()
		res, err = explore.Engine{}.Run(context.Background(), explore.Request{
			Space: sp, Measure: measure, Workers: workers, DeltaOnly: true,
			Memo: explore.NewBackedMemo(b), Workload: "w"})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cfgs {
			key := explore.MemoKey("w", c)
			m := res.Measurements[i]
			_, ok := stored[key]
			switch {
			case ok && (m.Evaluated || m.Pruned):
				t.Fatalf("delta workers=%d: stored %s decided %+v, want skipped", workers, c.Key(), m)
			case ok && b.loads[key] != 1:
				t.Fatalf("delta workers=%d: stored %s loaded %d times, want once", workers, c.Key(), b.loads[key])
			case !ok && b.loads[key] != 2:
				t.Fatalf("delta workers=%d: absent %s loaded %d times, want twice", workers, c.Key(), b.loads[key])
			}
		}
		if res.Measured == 0 || res.Skipped == 0 {
			t.Fatalf("delta workers=%d: measured %d, skipped %d: want both", workers, res.Measured, res.Skipped)
		}
	}
}

// loadSignal is a MapBacking that closes reached at the nth Load of
// key, so a test can tell a run's lookup of that key has happened.
type loadSignal struct {
	*exploretest.MapBacking
	key     string
	nth     int
	mu      sync.Mutex
	seen    int
	reached chan struct{}
}

func (b *loadSignal) Load(key string) (explore.Metrics, bool) {
	mx, ok := b.MapBacking.Load(key)
	if key == b.key {
		b.mu.Lock()
		if b.seen++; b.seen == b.nth {
			close(b.reached)
		}
		b.mu.Unlock()
	}
	return mx, ok
}

// TestDeltaJoinsAKeyInFlight starts a delta run while another run on
// the same memo is measuring key K. The delta run's lookup finds K
// absent, so it must neither skip K nor measure it again: it joins the
// measurement in flight and reports K evaluated and Cached.
func TestDeltaJoinsAKeyInFlight(t *testing.T) {
	cfgs := explore.CrossAppSpace(nil,
		[4]string{"libredis", "newlib", "uksched", "lwip"}, [4]string{"libnginx", "newlib", "uksched", "lwip"})
	measure := exploretest.VectorMeasure(rand.New(rand.NewSource(4)))
	sp := explore.NewSpace(cfgs)
	k := cfgs[0].Key() // index 0 is canonical and first in every list
	// K's Loads: run A's lookup, A's claim, then run B's lookup.
	b := &loadSignal{MapBacking: exploretest.NewMapBacking(), key: explore.MemoKey("w", cfgs[0]), nth: 3,
		reached: make(chan struct{})}
	memo := explore.NewBackedMemo(b)

	holding, release := make(chan struct{}), make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		_, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space: sp, Workers: 1, Memo: memo, Workload: "w",
			Measure: func(c *explore.Config) (explore.Metrics, error) {
				if c.Key() == k {
					close(holding)
					<-release
				}
				return measure(c)
			}})
		aDone <- err
	}()
	<-holding

	var measuredK atomic.Bool
	type run struct {
		res *explore.Result
		err error
	}
	bDone := make(chan run, 1)
	go func() {
		res, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space: sp, Workers: 2, DeltaOnly: true, Memo: memo, Workload: "w",
			Measure: func(c *explore.Config) (explore.Metrics, error) {
				if c.Key() == k {
					measuredK.Store(true)
				}
				return measure(c)
			}})
		bDone <- run{res, err}
	}()
	var rb run
	select {
	case <-b.reached:
		close(release)
		rb = <-bDone
	case rb = <-bDone:
		close(release)
		t.Errorf("delta run finished without looking K up while it was in flight")
	}
	if err := <-aDone; err != nil {
		t.Fatalf("run A: %v", err)
	}
	if rb.err != nil {
		t.Fatalf("delta run: %v", rb.err)
	}
	if measuredK.Load() {
		t.Fatal("delta run measured K, which another run was measuring")
	}
	if m := rb.res.Measurements[0]; !m.Evaluated || !m.Cached {
		t.Fatalf("delta run decided K as %+v, want evaluated and cached", m)
	}
}

// TestStoredConcurrentRunsMeasureEachKeyOnce runs concurrent
// explorations of one space over one memo whose backing holds half the
// records: the coordinators resolve the stored half, and the single
// flight still measures each missing key exactly once.
func TestStoredConcurrentRunsMeasureEachKeyOnce(t *testing.T) {
	cfgs := explore.CrossAppSpace(nil,
		[4]string{"libredis", "newlib", "uksched", "lwip"}, [4]string{"libnginx", "newlib", "uksched", "lwip"})
	base := exploretest.VectorMeasure(rand.New(rand.NewSource(2)))
	b := exploretest.NewMapBacking()
	for i, c := range cfgs {
		if i%2 == 1 {
			mx, _ := base(c)
			b.Put(explore.MemoKey("w", c), mx)
		}
	}
	var mu sync.Mutex
	calls := map[string]int{}
	measure := func(c *explore.Config) (explore.Metrics, error) {
		mu.Lock()
		calls[c.Key()]++
		mu.Unlock()
		time.Sleep(50 * time.Microsecond) // hold the flight open for the other runs
		return base(c)
	}
	memo := explore.NewBackedMemo(b)
	const runs = 6
	results := make([][]explore.Metrics, runs)
	var wg sync.WaitGroup
	for r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := explore.Engine{}.Run(context.Background(), explore.Request{
				Space: explore.NewSpace(cfgs), Measure: measure, Workers: 4, Memo: memo, Workload: "w"})
			if err != nil {
				t.Error(err)
				return
			}
			results[r] = values(res)
		}()
	}
	wg.Wait()
	for key, n := range calls {
		if n != 1 {
			t.Fatalf("%s measured %d times, want once", key, n)
		}
	}
	if got, want := b.Stores(), len(calls); got != want {
		t.Fatalf("%d stores for %d measured keys", got, want)
	}
	for r := 1; r < runs; r++ {
		if !reflect.DeepEqual(results[r], results[0]) {
			t.Fatalf("run %d reported different measurements than run 0", r)
		}
	}
}

// values lists the decided vectors of a result; which racing run
// measured a key and which joined it is provenance, not a value.
func values(res *explore.Result) []explore.Metrics {
	out := make([]explore.Metrics, len(res.Measurements))
	for i := range res.Measurements {
		out[i] = res.Measurements[i].Metrics
	}
	return out
}

// TestStoredRunCancels cancels fully stored runs, whose every pass is
// resolved on the coordinator, before the run and from Observe at
// several points of a multi-pass pruned walk: each returns
// ErrCanceled, leaves no goroutine behind and calls Observe no more
// after returning, and only the cancel on the final decision completes.
func TestStoredRunCancels(t *testing.T) {
	cfgs := explore.CrossAppSpace(nil,
		[4]string{"libredis", "newlib", "uksched", "lwip"}, [4]string{"libnginx", "newlib", "uksched", "lwip"})
	measure := exploretest.VectorMeasure(rand.New(rand.NewSource(3)))
	b := exploretest.NewMapBacking()
	for _, c := range cfgs {
		mx, _ := measure(c)
		b.Put(explore.MemoKey("w", c), mx)
	}
	floor := medianFloor(cfgs, measure)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (explore.Engine{}).Run(ctx, explore.Request{Space: explore.NewSpace(cfgs), Measure: measure,
		Memo: explore.NewBackedMemo(b), Workload: "w"}); !errors.Is(err, explore.ErrCanceled) {
		t.Fatalf("pre-canceled stored run returned %v, want ErrCanceled", err)
	}

	n := len(cfgs)
	for _, at := range []int{1, n / 3, n / 2, n} {
		for _, workers := range []int{1, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			var observed atomic.Int64
			res, err := explore.Engine{}.Run(ctx, explore.Request{
				Space: explore.NewSpace(cfgs), Measure: measure, Workers: workers,
				Constraints: []explore.Constraint{floor}, Prune: true,
				Memo: explore.NewBackedMemo(b), Workload: "w",
				Observe: func(int, *explore.Measurement) {
					if observed.Add(1) == int64(at) {
						cancel()
					}
				},
			})
			cancel()
			switch {
			case at < n && !errors.Is(err, explore.ErrCanceled):
				t.Fatalf("cancel at decision %d/%d, workers=%d: got %v, want ErrCanceled", at, n, workers, err)
			case at == n && (err != nil && !errors.Is(err, explore.ErrNoFeasible) || res == nil):
				t.Fatalf("cancel on the final decision, workers=%d: got %v, want the completed run", workers, err)
			}
			if got := observed.Load(); got < int64(min(at, n)) {
				t.Fatalf("cancel at decision %d, workers=%d: only %d observed", at, workers, got)
			}
			after := observed.Load()
			time.Sleep(5 * time.Millisecond)
			if observed.Load() != after {
				t.Fatal("Observe fired after Engine.Run returned")
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d alive, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
