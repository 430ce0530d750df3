package explore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexos/internal/store"
)

// hookedBacking is a store.Memory backing that runs a test hook after
// each Load and before each Store, to stop callers at the edges of
// Memo.do's protocol.
type hookedBacking struct {
	st      *store.Store
	onLoad  func()
	onStore func()
}

func (b *hookedBacking) Load(key string) (Metrics, bool) {
	mx, ok := b.st.Load(key)
	if b.onLoad != nil {
		b.onLoad()
	}
	return mx, ok
}

func (b *hookedBacking) Store(key string, m Metrics) {
	if b.onStore != nil {
		b.onStore()
	}
	b.st.Store(key, m)
}

// memoRace is n callers of Memo.do on one key over a hooked backing.
type memoRace struct {
	n       int
	b       *hookedBacking
	m       *Memo
	arrived atomic.Int32
	calls   atomic.Int32
	half    chan struct{} // closed when n/2 callers have reached do
	all     chan struct{} // closed when all n have
	again   chan struct{} // closed when a second measurement begins
}

type memoResult struct {
	mx  Metrics
	hit bool
	err error
}

var raceWant = Metrics{Throughput: 1234.5, P50us: 0.1, P99us: 7.25, PeakMemBytes: 1 << 20, Cycles: 99}

func newMemoRace(n int) *memoRace {
	r := &memoRace{n: n, b: &hookedBacking{st: store.Memory()},
		half: make(chan struct{}), all: make(chan struct{}), again: make(chan struct{})}
	r.m = NewBackedMemo(r.b)
	return r
}

// call is one caller as the engine makes it: the coordinator's backing
// Load, then, on a miss, Memo.do. Its measurement, should it run one,
// blocks until half the callers have arrived.
func (r *memoRace) call() memoResult {
	a := int(r.arrived.Add(1))
	if a == r.n/2 {
		close(r.half)
	}
	if a == r.n {
		close(r.all)
	}
	if mx, ok := r.b.Load("k"); ok {
		return memoResult{mx, true, nil}
	}
	mx, hit, err := r.m.do("k", func() (Metrics, error) {
		if r.calls.Add(1) == 2 {
			close(r.again)
		}
		<-r.half
		return raceWant, nil
	})
	return memoResult{mx, hit, err}
}

// run starts every caller, the first early of them at once and the
// rest when late is closed, and returns their results once all return.
func (r *memoRace) run(early int, late <-chan struct{}) []memoResult {
	out := make([]memoResult, r.n)
	var wg sync.WaitGroup
	for i := range r.n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i >= early {
				<-late
			}
			out[i] = r.call()
		}()
	}
	wg.Wait()
	return out
}

// check is the single-flight contract: one measurement, one caller
// that reports it fresh, the same vector for all, nothing left in
// flight, and one record in the backing.
func (r *memoRace) check(t *testing.T, out []memoResult) {
	t.Helper()
	if c := r.calls.Load(); c != 1 {
		t.Fatalf("measured %d times, want once", c)
	}
	misses := 0
	for i, g := range out {
		if g.err != nil || g.mx != raceWant {
			t.Fatalf("caller %d: mx=%+v err=%v, want %+v", i, g.mx, g.err, raceWant)
		}
		if !g.hit {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers reported a fresh measurement, want 1", misses)
	}
	if l := r.m.Len(); l != 0 {
		t.Fatalf("Len()=%d after every caller returned, want 0", l)
	}
	if l := r.b.st.Len(); l != 1 {
		t.Fatalf("backing holds %d records, want 1", l)
	}
}

// TestMemoSingleFlightAcrossCompletion: a key is measured at most once
// per memo however its callers straddle the measurement — while it is
// in flight, around the moment its value is stored, and across the gap
// between a caller's first backing miss and its claiming the key.
func TestMemoSingleFlightAcrossCompletion(t *testing.T) {
	const n = 64

	t.Run("in-flight", func(t *testing.T) {
		r := newMemoRace(n)
		r.check(t, r.run(n, nil))
	})

	// The first half arrives while the measurement runs; the second
	// half is let in from inside the backing's Store, before the value
	// lands. Callers that join the entry in flight show no event to
	// wait for, so the Store dwells a bounded time for a second
	// measurement, which begins only if the entry left the table early.
	t.Run("split-at-store", func(t *testing.T) {
		r := newMemoRace(n)
		late := make(chan struct{})
		var once sync.Once
		r.b.onStore = func() {
			once.Do(func() {
				close(late)
				<-r.all
				select {
				case <-r.again:
				case <-time.After(50 * time.Millisecond):
				}
			})
		}
		r.check(t, r.run(n/2, late))
	})

	// One caller misses the backing, then stalls before reaching do
	// while another measures, stores and leaves the table. It must
	// find the value on the load after its claim instead of measuring
	// again.
	t.Run("miss-then-finish", func(t *testing.T) {
		r := newMemoRace(2)
		stalled, resume := make(chan struct{}), make(chan struct{})
		var loads atomic.Int32
		r.b.onLoad = func() {
			if loads.Add(1) == 1 {
				close(stalled)
				<-resume
			}
		}
		out := make([]memoResult, 2)
		done := make(chan struct{})
		go func() {
			defer close(done)
			out[0] = r.call()
		}()
		<-stalled
		out[1] = r.call()
		close(resume)
		<-done
		r.check(t, out)
	})
}

// TestMemoKeyCacheStaysAtCap asks one space for the memo keys of more
// workloads than it keeps, twice over, through full and sharded runs
// and Result.MemoKey: the cache never holds more than maxMemoKeySets
// sets, and every key it hands out, cached or fresh, equals MemoKey.
func TestMemoKeyCacheStaysAtCap(t *testing.T) {
	cfgs := Fig5Space([]string{"app", "libc"}, []string{"lwip"})
	sp := NewSpace(cfgs)
	measure := func(c *Config) (Metrics, error) { return Metrics{Throughput: float64(c.ID)}, nil }
	check := func(ns string, keys []string, lo int) {
		t.Helper()
		for i, k := range keys {
			if want := MemoKey(ns, cfgs[lo+i]); k != want {
				t.Fatalf("workload %q config %d: cached key %q, want %q", ns, lo+i, k, want)
			}
		}
	}
	for round := 0; round < 2; round++ {
		for w := 0; w < 3*maxMemoKeySets; w++ {
			ns := fmt.Sprintf("workload-%d/%d", w, round)
			sh := Shard{Index: w % 3, Count: 3}
			res, err := Engine{}.Run(context.Background(), Request{
				Space: sp, Measure: measure, Memo: NewMemo(), Workload: ns, Shard: sh, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			lo, _ := sh.bounds(len(cfgs))
			for i := range res.Measurements {
				if got, want := res.MemoKey(ns, i), MemoKey(ns, cfgs[lo+i]); got != want {
					t.Fatalf("workload %q: Result.MemoKey(%d) = %q, want %q", ns, i, got, want)
				}
			}
			check(ns, sp.memoKeysOf(ns), 0)
			sp.memoMu.Lock()
			held := len(sp.memoKeys)
			for cached, keys := range sp.memoKeys {
				check(cached, keys, 0)
			}
			sp.memoMu.Unlock()
			if held > maxMemoKeySets {
				t.Fatalf("after workload %q the space holds %d memo-key sets, cap %d", ns, held, maxMemoKeySets)
			}
		}
	}
}
