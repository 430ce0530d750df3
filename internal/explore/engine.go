package explore

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"flexos/internal/poset"
	"flexos/internal/store"
)

// Request describes one exploration for Engine.Run: the space, how to
// measure it, the feasibility constraints, and the engine knobs.
type Request struct {
	// Space is the configuration space to explore (see NewSpace). A
	// nil Space is empty.
	Space *Space

	// Measure benchmarks one configuration into a full metric vector.
	// It must be deterministic, and safe for concurrent use when
	// Workers != 1. It is not interrupted mid-call on cancellation;
	// close over the run's context inside it to bound cancel latency.
	Measure MeasureMetrics

	// Metric is the ranking metric: the dimension Measurement.Perf and
	// the DOT shading report. Empty selects the first constraint's
	// metric, or throughput when there are no constraints.
	Metric Metric

	// Constraints is the feasibility conjunction: a configuration is
	// feasible when its vector satisfies every constraint. Constraints
	// in their natural direction (see Constraint.Monotone) also drive
	// monotonic pruning when Prune is set. An empty slice means every
	// measured configuration is feasible.
	Constraints []Constraint

	// Workers is the number of concurrent measurement goroutines;
	// values <= 0 select runtime.GOMAXPROCS(0). Results are
	// byte-identical for every worker count.
	Workers int

	// Prune enables poset-aware monotonic pruning (§5): a configuration
	// is skipped when a strictly-less-safe ancestor already violated a
	// monotone constraint. Sound under concurrent completion order: a
	// configuration is decided only after all its poset predecessors.
	Prune bool

	// Memo, when non-nil, caches measurements across runs keyed by
	// canonical configuration identity (Config.Key). Share one Memo
	// only among runs whose measure functions agree for identical
	// configurations; use Workload to namespace several benchmarks in
	// one memo. Records carry full metric vectors, so runs constraining
	// different metrics can share a memo as long as the workload
	// matches.
	Memo *Memo

	// Workload namespaces memo keys (e.g. "redis-get90/240").
	Workload string

	// MeasureBudget, when > 0, caps the number of fresh measure calls
	// the run may spend and switches the engine to budgeted guided
	// search. With Prune set and a monotone constraint present, the
	// budget drives a branch-and-bound sweep of the grouped safety
	// posets: one measurement failing a monotone floor prunes its
	// entire undecided up-set before measuring it, so the budget is
	// spent only on the feasible region and its minimal infeasible
	// boundary — a sweep that completes within budget reports exactly
	// what the exhaustive pruned run would, byte for byte. Without a
	// prunable constraint the budget drives seeded successive-halving
	// ranked sampling instead. Configurations the budget never reaches
	// are skipped (neither evaluated nor pruned) and counted in
	// Result.Skipped. Memo and backing hits are free — they never
	// consume budget — so warm budgeted runs decide strictly more than
	// cold ones. For a fixed (MeasureBudget, Seed) pair results are
	// byte-identical at every worker count, and every reported
	// measurement also appears, bit-for-bit, in the exhaustive run's
	// result.
	MeasureBudget int

	// Seed drives the successive-halving sampling order: candidate
	// priority is a splittable PRNG stream over canonical
	// configuration keys, so the sampled subset depends only on
	// (Seed, MeasureBudget) and the space — never on worker count or
	// completion order. Ignored unless MeasureBudget > 0; the
	// branch-and-bound sweep (Prune with a monotone constraint) is
	// deterministic without sampling, so there Seed does not change
	// the result.
	Seed int64

	// DeltaOnly, when set, re-explores only the configurations whose
	// canonical identity has no record in the Memo's backing store. The
	// run's one lookup of a key decides it: a stored key is skipped
	// together with its identical twins (canonical first, then the
	// twins, which is the order Observe sees them in) and counted in
	// Result.Skipped; an absent one is measured — or, when another run
	// is measuring it, joined and reported Cached. This is delta
	// re-exploration — after editing a space, re-measure exactly the
	// changed points and merge the store for a full warm report.
	// Requires a Memo; incompatible with MeasureBudget. Pruning is
	// ignored (the skipped keys already carry values, so there is
	// nothing for a prune to save), and a delta run never returns
	// ErrNoFeasible — its report only covers the re-measured slice of
	// the space.
	DeltaOnly bool

	// Shard, when non-zero, restricts the run to one deterministic
	// slice of Space: the Index-th of Count order-preserving,
	// non-overlapping contiguous partitions of the canonical
	// enumeration (see Shard). The memo keys of the sharded run are
	// exactly those the full run would use, which is what lets N shard
	// runs populate N stores whose merge warm-starts the unsharded
	// exploration.
	Shard Shard

	// Observe, when non-nil, is called on the coordinating goroutine
	// after each configuration is decided, with the configuration's
	// index in the explored slice of Space (the whole Space when Shard
	// is zero — with a shard, indices are relative to the shard's
	// slice, like Result.Measurements) and its final Measurement —
	// measured, memo-filled, inherited from a twin, or pruned. m points
	// at the Result's own slot, which the engine never rewrites once
	// the configuration is decided, so it stays valid after the hook
	// returns; Observe must not modify it. It is what Query.Stream and
	// Query.Progress build on. It never runs concurrently with itself
	// and must not block indefinitely.
	Observe func(idx int, m *Measurement)
}

// Backing is a Memo's record tier, the store of every finished
// measurement. Load returns the stored vector for a memo key; Store
// records one, which later Loads must return. Both must be safe for
// concurrent use — they are called from the worker pool, and Load from
// the coordinating goroutines of concurrent runs as well. The package
// does not flush or close a backing; its owner does (flush-on-close),
// which is how a Query with a cache directory scopes the store to a
// run. Results are byte-identical whether a run is cold, warm, or
// mixed, at any worker count — only Result.MemoHits/Evaluated move.
type Backing interface {
	Load(key string) (Metrics, bool)
	Store(key string, metrics Metrics)
}

// Memo is a concurrency-safe measurement cache keyed by canonical
// configuration identity, and may be shared by concurrent runs.
// Finished measurements live only in its Backing; the Memo holds the
// measurements in flight, which concurrent callers join rather than
// repeat. Failed measurements are not stored (a later run retries
// them).
type Memo struct {
	mu       sync.Mutex
	inflight map[string]*memoEntry
	backing  Backing
}

type memoEntry struct {
	done    chan struct{}
	metrics Metrics
	err     error
}

// NewMemo returns an empty measurement cache over an in-memory store.
func NewMemo() *Memo { return NewBackedMemo(store.Memory()) }

// MemoKey composes the memo/store key of one configuration under a
// workload namespace: the namespace and the configuration's canonical
// identity, NUL-joined (NUL cannot appear in either part). This is the
// key Memo and Backing operate on, the record key a result store
// persists, and — because it is reproducible from (namespace, config)
// alone — the unit of exchange when runs ship results to each other
// (shard-merge, cluster store sync).
func MemoKey(workload string, c *Config) string { return memoKey(workload, c.Key()) }

// memoKey composes a memo key from an already rendered canonical key.
func memoKey(workload, key string) string { return workload + "\x00" + key }

// NewBackedMemo returns a measurement cache whose records live in b:
// lookups read it and fresh measurements write through to it. A nil
// backing is an in-memory store (store.Memory).
func NewBackedMemo(b Backing) *Memo {
	if b == nil {
		b = store.Memory()
	}
	return &Memo{inflight: make(map[string]*memoEntry), backing: b}
}

// Len returns the number of measurements in flight (0 when idle).
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inflight)
}

// do resolves key by joining its in-flight computation or claiming it;
// hit reports whether the value predates this call. The claimant loads
// the backing once, outside the mutex since it may do I/O, and only on
// a miss computes the value with f. A fresh value is stored before its
// entry leaves the table, so a caller that finds no entry finds the
// value on its Load: a key is measured at most once.
func (m *Memo) do(key string, f func() (Metrics, error)) (mx Metrics, hit bool, err error) {
	m.mu.Lock()
	e := m.inflight[key]
	if e != nil {
		m.mu.Unlock()
		<-e.done
		return e.metrics, true, e.err
	}
	e = &memoEntry{done: make(chan struct{})}
	m.inflight[key] = e
	m.mu.Unlock()
	if e.metrics, hit = m.backing.Load(key); !hit {
		if e.metrics, e.err = f(); e.err == nil {
			m.backing.Store(key, e.metrics)
		}
	}
	m.mu.Lock()
	delete(m.inflight, key)
	m.mu.Unlock()
	close(e.done)
	return e.metrics, hit, e.err
}

// Engine is the one exploration engine. It is stateless — the zero
// value is ready to use — and every public exploration surface (the
// flexos.Query builder, the figures package) funnels into its Run
// method.
type Engine struct{}

// outcome is one configuration's reusable measurement slot. Workers
// write outcomes into a preallocated slot array — never through a
// per-configuration channel send or heap allocation — and hand whole
// spans of filled slots to the coordinator at batch granularity.
type outcome struct {
	metrics Metrics
	err     error
	hit     bool
}

// maxBatch caps the chunk a worker claims from the pool's list: large
// enough to amortize claim/handoff costs, small enough to keep the pool
// load-balanced and decision latency low.
const maxBatch = 64

// runState is the coordinator-owned decision bookkeeping of one run.
// The decided / valued / failsBudget frontiers are bitsets (one bit
// per configuration, extending internal/poset's bitset currency to the
// engine), so frontier updates and queries are allocation-free and
// cache-dense at 10k–1M-point space sizes.
type runState struct {
	req    *Request
	res    *Result
	space  *Space
	cfgs   []*Config
	metric Metric
	canon  []int32
	twins  map[int32][]int32

	decided     poset.Bitset
	valued      poset.Bitset
	failsBudget poset.Bitset
	done        int

	canceled bool
	failed   bool
	errs     []failedMeasure

	slots []outcome // the pool's outcome slots, reused across passes

	// misses is runList's lookup result, reused across passes: the
	// listed configurations with no stored record, which go to the pool.
	misses []int32

	// memoKeys holds every configuration's memo key when the run has a
	// Memo: the Space renders them once per workload (memoKeysOf).
	memoKeys []string
}

type failedMeasure struct {
	idx int
	err error
}

// fill values configuration i from a measurement (fresh, memo-hit, or
// twin-inherited) and decides it.
func (st *runState) fill(i int, mx Metrics, cached bool) {
	m := &st.res.Measurements[i]
	m.Metrics = mx
	m.Perf = st.metric.Value(mx)
	m.Evaluated = true
	m.Cached = cached
	if cached {
		st.res.MemoHits++
	} else {
		st.res.Evaluated++
		st.res.Measured++
	}
	st.valued.Set(i)
	if failsMonotone(st.res.Constraints, mx) {
		st.failsBudget.Set(i)
	}
	st.markDecided(i)
}

// skip decides configuration i without a value: the budget never
// reached it (budgeted search) or its key is already stored (delta
// re-exploration). The measurement stays unevaluated and unpruned.
func (st *runState) skip(i int) {
	st.res.Skipped++
	st.markDecided(i)
}

// markDecided records the decision and fires the per-decision hook.
func (st *runState) markDecided(i int) {
	st.decided.Set(i)
	st.done++
	if st.req.Observe != nil {
		st.req.Observe(i, &st.res.Measurements[i])
	}
}

// measureOne resolves the k-th configuration of the pool's list:
// canceled-while-queued check, then memo (join, or claim, load and
// measure), or a direct measure call. Safe for concurrent use; the
// result lands in a caller-owned slot, never on the heap.
func (st *runState) measureOne(ctx context.Context, list []int32, k int, slot *outcome) {
	if err := ctx.Err(); err != nil {
		// Canceled while queued: report without measuring (and without
		// planting a memo entry).
		slot.err = err
		return
	}
	i := list[k]
	if st.req.Memo != nil {
		slot.metrics, slot.hit, slot.err = st.req.Memo.do(st.memoKeys[i], func() (Metrics, error) {
			return st.req.Measure(st.cfgs[i])
		})
		return
	}
	slot.metrics, slot.err = st.req.Measure(st.cfgs[i])
}

// Run explores a configuration space: it reads the grouped safety
// order, the canonical keys and the identical-twin grouping from the
// Space (which builds the order on first use), fans measurement across
// a worker pool in batch-claimed chunks, deduplicates identical
// configurations (within the space, and — given a Memo — across spaces
// and runs), prunes monotonically when asked, and extracts the safest
// feasible configurations. The Result is byte-identical for every
// worker count: decisions depend only on the safety order, the
// constraints and the deterministic measure function; pool scheduling
// only affects wall-clock time.
//
// Identical configurations within one space are measured once: the
// lowest-index occurrence measures, its twins inherit the value with
// Cached set.
//
// Every mode runs one of two algorithms over one worker pool. The
// ready-frontier walk (see walk) decides configurations pass by pass
// in safety order — a configuration is decided only after all its
// poset predecessors — and measures each pass's batch on the pool.
// Given a Memo, a batch's stored records are filled on the calling
// goroutine first (a delta run skips them instead), so only the misses
// reach the pool and a fully stored pass starts no goroutine.
// When Prune is set and a monotone constraint can prune, the walk
// follows the Hasse edges, with MeasureBudget (or no cap) bounding the
// fresh measurements; otherwise, and in a delta run, it has no edges,
// so the whole space is one pass. A budget without a prunable
// constraint runs seeded successive halving instead (see
// budgetHalving). Whatever a completed run leaves undecided —
// configurations the budget never reached — is decided as skipped, in
// input order.
//
// Cancellation: when ctx is canceled or its deadline expires, Run stops
// submitting measurements, waits for in-flight ones to return (measure
// functions are never interrupted mid-call — have them watch the same
// ctx to keep cancellation prompt), and returns an error wrapping
// ErrCanceled. No goroutines outlive the call and a shared Memo is left
// reusable.
//
// Errors: a measure failure surfaces as a *MeasureError for the
// lowest-index failing configuration (stable across worker counts). A
// completed run whose constraints no configuration satisfies returns
// the fully-populated Result together with ErrNoFeasible.
func (Engine) Run(ctx context.Context, req Request) (*Result, error) {
	if req.Measure == nil {
		return nil, errors.New("explore: request has no measure function")
	}
	req = req.normalize()
	if req.DeltaOnly {
		if req.MeasureBudget > 0 {
			return nil, errors.New("explore: DeltaOnly and MeasureBudget are mutually exclusive")
		}
		if req.Memo == nil {
			return nil, errors.New("explore: DeltaOnly requires a Memo (usually a backed one)")
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledError(ctx)
	}
	metric := req.Metric
	sp, err := req.Space.shard(req.Shard)
	if err != nil {
		return nil, err
	}
	cfgs := sp.cfgs
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	n := len(cfgs)
	order := sp.safetyOrder()
	res := &Result{
		Measurements: make([]Measurement, n),
		Total:        n,
		Metric:       metric,
		Constraints:  append([]Constraint(nil), req.Constraints...),
		Shard:        req.Shard,
		space:        sp,
	}
	// Budget echoes the ranking metric's bound for single-budget
	// consumers (Result.String, the figures).
	for _, c := range res.Constraints {
		if c.Metric == metric {
			res.Budget = c.Bound
			break
		}
	}
	for i, c := range cfgs {
		res.Measurements[i].Config = c
	}

	st := &runState{
		req:         &req,
		res:         res,
		space:       sp,
		cfgs:        cfgs,
		metric:      metric,
		canon:       sp.canon,
		twins:       sp.twins,
		decided:     poset.NewBitset(n),
		valued:      poset.NewBitset(n),
		failsBudget: poset.NewBitset(n),
	}
	if req.Memo != nil {
		st.memoKeys = sp.memoKeysOf(req.Workload)
	}

	// Pruning can only ever fire when a monotone constraint exists;
	// without one the walk needs no Hasse edges and order.edges() is
	// never built.
	switch {
	case req.Prune && !req.DeltaOnly && anyMonotone(req.Constraints):
		budget := math.MaxInt
		if req.MeasureBudget > 0 {
			budget = req.MeasureBudget
		}
		preds, succs := order.edges()
		st.walk(ctx, workers, preds, succs, budget)
	case req.MeasureBudget > 0:
		st.budgetHalving(ctx, order, workers, req.MeasureBudget)
	default:
		st.walk(ctx, workers, nil, nil, math.MaxInt)
	}
	if !st.canceled && !st.failed {
		// Wind down: whatever the budget never reached is decided as
		// skipped, in input order, so Observe completes the space.
		for i := 0; i < n; i++ {
			if !st.decided.Test(i) {
				st.skip(i)
			}
		}
	}

	// Cancellation wins over measure errors it provoked: a cooperative
	// measure function typically surfaces the context's error, which
	// must not masquerade as a measurement failure. But a run whose
	// every configuration was decided is complete — a deadline firing
	// between the last decision and the return must not discard it.
	if st.done < n && (st.canceled || ctx.Err() != nil) {
		return nil, canceledError(ctx)
	}
	if st.failed {
		// Report the lowest-index failure so the error is stable across
		// worker counts when a single configuration is at fault.
		sort.Slice(st.errs, func(a, b int) bool { return st.errs[a].idx < st.errs[b].idx })
		o := st.errs[0]
		c := cfgs[o.idx]
		return nil, &MeasureError{ID: c.ID, Key: sp.keys[o.idx], Label: c.Label(), Err: o.err}
	}

	res.Safest = order.safest(res.Feasible)
	// A delta run's report deliberately covers only the re-measured
	// slice of the space; an empty Safest there means "nothing new was
	// both measured and feasible", not infeasibility.
	if len(res.Constraints) > 0 && res.Total > 0 && len(res.Safest) == 0 && !req.DeltaOnly {
		return res, ErrNoFeasible
	}
	return res, nil
}

// walk is the ready-frontier walk every engine mode except successive
// halving runs on. Each pass over the frontier (undecided
// configurations whose poset predecessors are all decided — an
// antichain, so pass members never prune each other) first takes the
// free decisions: prune-inheritance from a predecessor that failed a
// monotone constraint, and twin inheritance from a valued canonical.
// What remains is measured as one deterministic batch, capped by the
// unspent budget — the batch is fixed before any measurement starts,
// so worker count only moves wall-clock time. A failing measurement
// keeps its vector (evaluated, infeasible — the boundary of the
// feasible region) and seeds prune-inheritance for everything above.
//
// Without Hasse edges (preds == nil: nothing can prune) every
// undecided configuration is ready at once and the walk is a single
// pass over the whole space. With an unbounded budget the walk is the
// exhaustive pruned run; with Request.MeasureBudget it is the
// branch-and-bound sweep, which ends either when the frontier drains
// (complete: the exhaustive pruned run's result, byte for byte) or
// when a pass can neither measure nor decide anything (starved: Run's
// wind-down skips the rest).
func (st *runState) walk(ctx context.Context, workers int, preds, succs [][]int32, budget int) {
	n := len(st.cfgs)
	var remaining []int32
	if preds != nil {
		remaining = make([]int32, n)
	}
	frontier := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if preds != nil {
			remaining[i] = int32(len(preds[i]))
		}
		if (preds == nil || remaining[i] == 0) && !st.decided.Test(i) {
			frontier = append(frontier, int32(i))
		}
	}
	var batch, next []int32
	// release decrements successor in-degrees of a decided node and
	// collects the newly ready.
	release := func(i int32) {
		if succs == nil {
			return
		}
		for _, j := range succs[i] {
			if remaining[j]--; remaining[j] == 0 && !st.decided.Test(int(j)) {
				next = append(next, j)
			}
		}
	}
	for len(frontier) > 0 {
		if st.canceled || st.failed {
			return
		}
		slices.Sort(frontier)
		batch, next = batch[:0], next[:0]
		pruned := false
		for _, i32 := range frontier {
			i := int(i32)
			if st.decided.Test(i) {
				continue // a twin, filled alongside its canonical
			}
			if preds != nil && st.prunedBy(preds[i]) {
				st.res.Measurements[i].Pruned = true
				st.failsBudget.Set(i) // propagate
				st.markDecided(i)
				release(i32)
				pruned = true
				continue
			}
			if st.canon[i32] != i32 {
				// An identical twin: its canonical shares the predecessor
				// set, so it sits in this very pass — the twin inherits
				// right after the canonical's outcome lands.
				continue
			}
			batch = append(batch, i32)
		}
		// The budget cap is pessimistic — memo hits inside the batch are
		// free and refund the cut configurations to a later pass.
		if room := max(budget-st.res.Measured, 0); len(batch) > room {
			batch = batch[:room]
		}
		if len(batch) == 0 && !pruned {
			return // starved: no budget for the frontier, nothing to inherit
		}
		// fill marks a monotone-failing vector in failsBudget itself,
		// which is what seeds the prune-inheritance above.
		st.runList(ctx, workers, batch, release)
		for _, i32 := range frontier {
			if !st.decided.Test(int(i32)) {
				next = append(next, i32)
			}
		}
		frontier = append(frontier[:0], next...)
	}
}

// prunedBy reports whether any of a configuration's poset predecessors
// failed a monotone constraint (measured, or pruned in turn).
func (st *runState) prunedBy(preds []int32) bool {
	for _, pr := range preds {
		if st.failsBudget.Test(int(pr)) {
			return true
		}
	}
	return false
}

// runList measures a list of canonical configurations. Given a Memo,
// the coordinating goroutine first fills every configuration the
// backing already holds (see loadStored), so a warm pass starts no
// goroutine and allocates nothing; the rest go to the engine's one
// worker pool (see runPool).
//
// On the coordinating goroutine each successful outcome fills its
// configuration and the configuration's twins, and settled (when
// non-nil) is called for every index filled.
func (st *runState) runList(ctx context.Context, workers int, list []int32, settled func(i int32)) {
	if st.req.Memo != nil {
		list = st.loadStored(ctx, list, settled)
	}
	if len(list) > 0 {
		st.runPool(ctx, min(workers, len(list)), list, settled)
	}
}

// runPool measures a non-empty list on the worker pool: workers claim
// chunks of the list off a shared atomic cursor (idle workers steal
// the next chunk as soon as they finish one — chunk size adapts from
// maxBatch down to 1 as the list drains, so the tail stays balanced),
// write outcomes into preallocated slots, and report whole spans to
// the coordinator. The hot loop performs no channel operation and no
// allocation per configuration. The first failure or a cancellation
// winds the pool down: spans already claimed still report, failures
// are recorded, and nothing more is filled.
//
// It is runList's only goroutine-starting half: the workers capture
// its parameters, which therefore live on the heap, so a pass that
// never reaches it allocates nothing for them.
func (st *runState) runPool(ctx context.Context, workers int, list []int32, settled func(i int32)) {
	if cap(st.slots) < len(list) {
		st.slots = make([]outcome, len(list))
	}
	slots := st.slots[:len(list)]
	clear(slots)
	// spans is buffered so workers keep measuring while the
	// coordinator is busy in Observe; every chunk holds at
	// least one configuration, so a list of up to 1024 never blocks a
	// worker.
	var (
		cursor atomic.Int64
		stop   atomic.Bool
		spans  = make(chan [2]int32, min(len(list), 1024))
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total := int64(len(list))
			for !stop.Load() {
				// Guided chunk sizing: claim 1/(4·workers) of what is
				// left, clamped to [1, maxBatch].
				sz := min(max((total-cursor.Load())/int64(4*workers), 1), maxBatch)
				hi := cursor.Add(sz)
				lo := hi - sz
				if lo >= total {
					return
				}
				hi = min(hi, total)
				for k := lo; k < hi; k++ {
					st.measureOne(ctx, list, int(k), &slots[k])
					if slots[k].err != nil {
						stop.Store(true)
					}
				}
				spans <- [2]int32{int32(lo), int32(hi)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(spans)
	}()

	cancelCh := ctx.Done()
	for {
		select {
		case <-cancelCh:
			st.canceled = true
			stop.Store(true)
			cancelCh = nil
		case s, ok := <-spans:
			if !ok {
				return
			}
			for k := s[0]; k < s[1] && !st.canceled; k++ {
				i, o := list[k], &slots[k]
				if o.err != nil {
					st.failed = true
					st.errs = append(st.errs, failedMeasure{idx: int(i), err: o.err})
					continue
				}
				if st.failed {
					continue
				}
				st.settle(i, o.metrics, o.hit, settled)
			}
		}
	}
}

// loadStored is the engine's one lookup of whether a record is stored.
// On the coordinating goroutine it fills every listed configuration
// whose record the memo's backing holds, as a pool hit would be filled
// — or, in a delta run, skips it and its twins — and returns the rest,
// which the pool resolves through Memo.do. A context that falls before
// or during the lookups cancels the run and leaves nothing for the
// pool.
func (st *runState) loadStored(ctx context.Context, list []int32, settled func(i int32)) []int32 {
	st.misses = st.misses[:0]
	done := ctx.Done()
	for _, i := range list {
		select {
		case <-done:
			st.canceled = true
			return nil
		default:
		}
		mx, ok := st.req.Memo.backing.Load(st.memoKeys[i])
		switch {
		case !ok:
			st.misses = append(st.misses, i)
		case st.req.DeltaOnly:
			// A delta walk has no edges, so nothing waits on settled.
			st.skip(int(i))
			for _, t := range st.twins[i] {
				st.skip(int(t))
			}
		default:
			st.settle(i, mx, true, settled)
		}
	}
	return st.misses
}

// settle fills canonical configuration i and its twins from one
// outcome, calling settled (when non-nil) for every index filled.
func (st *runState) settle(i int32, mx Metrics, hit bool, settled func(i int32)) {
	st.fill(int(i), mx, hit)
	if settled != nil {
		settled(i)
	}
	for _, t := range st.twins[i] {
		st.fill(int(t), mx, true)
		if settled != nil {
			settled(t)
		}
	}
}

// anyMonotone reports whether any constraint can drive pruning.
func anyMonotone(cs []Constraint) bool {
	for _, c := range cs {
		if c.Monotone() {
			return true
		}
	}
	return false
}

// canceledError wraps ErrCanceled with the context's cause, so callers
// can distinguish a deadline from an explicit cancel via errors.Is.
func canceledError(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return &canceled{cause: cause}
	}
	return ErrCanceled
}

type canceled struct{ cause error }

func (c *canceled) Error() string { return ErrCanceled.Error() + ": " + c.cause.Error() }

// Unwrap lets errors.Is see both ErrCanceled and the context cause
// (context.Canceled or context.DeadlineExceeded).
func (c *canceled) Unwrap() []error { return []error{ErrCanceled, c.cause} }
