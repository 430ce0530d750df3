package flexos

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"flexos/internal/explore"
	"flexos/internal/store"
)

// Query is the one exploration surface of the package: a fluent
// builder over the unified engine. Construct it with NewQuery, chain
// option calls, then Run it (or Stream it) under a context:
//
//	res, err := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
//		Workload(sc).
//		Constrain(flexos.MetricThroughput, flexos.AtLeast, 500_000).
//		Constrain(flexos.MetricP99, flexos.AtMost, 2.5).
//		Workers(8).
//		Prune(true).
//		Run(ctx)
//
// A Query carries any number of simultaneous constraints (a throughput
// floor AND a p99 ceiling AND a memory ceiling, say); feasibility is
// their conjunction, and constraints in their natural direction drive
// monotonic pruning. The context cancels or deadlines the whole worker
// pool: Run returns an error wrapping ErrCanceled, promptly if the
// measure function watches the same context.
//
// A Query value is reusable: Run and Stream take a snapshot of the
// builder state, so the same Query may run several times (sharing a
// Memo makes the repeats nearly free) and builder calls between runs
// take effect on the next run. It is not safe for concurrent mutation.
type Query struct {
	space       *ExploreSpace
	measure     func(*ExploreConfig) (Metrics, error)
	workload    string // memo namespace contributed by Workload
	namespace   string // caller-supplied extra namespace
	constraints []ExploreConstraint
	metric      Metric
	workers     int
	prune       bool
	budget      int
	seed        int64
	deltaOnly   bool
	memo        *ExploreMemo
	shard       explore.Shard
	cacheDir    string
	cacheRO     bool
	progress    func(done, total int)
	err         error
}

// NewQuery starts a query over a configuration space (from Fig6Space,
// Fig5Space, CrossAppSpace, or hand-built ExploreConfigs). Give it a
// measurement source (Workload, Measure or MeasureScalar) before
// running.
func NewQuery(space []*ExploreConfig) *Query { return NewSpaceQuery(NewSpace(space)) }

// NewSpaceQuery starts a query over a Space (see NewSpace): the keys
// and safety order the Space holds serve every query over it.
func NewSpaceQuery(space *ExploreSpace) *Query { return &Query{space: space} }

// Workload measures every configuration by running w on it (each
// configuration is materialized into an image with the TCB libraries in
// the default compartment — see MeasureScenario). The workload's
// identity also namespaces the memo: for library Scenarios the
// namespace is "name/ops", so two scenarios — or one scenario at two
// op counts — never collide in a shared Memo, whatever Namespace the
// caller adds.
func (q *Query) Workload(w Workload) *Query {
	if w == nil {
		q.err = errors.New("flexos: Query.Workload called with a nil workload")
		return q
	}
	q.measure = MeasureScenario(w)
	if mk, ok := w.(interface{ MemoKey() string }); ok {
		q.workload = mk.MemoKey()
	} else {
		q.workload = w.Name()
	}
	return q
}

// Measure sets a custom multi-metric measure function. It must be
// deterministic and, when Workers != 1, safe for concurrent use. When
// sharing a Memo across different measure functions, namespace them
// apart with Namespace.
func (q *Query) Measure(fn func(*ExploreConfig) (Metrics, error)) *Query {
	q.measure = fn
	q.workload = ""
	return q
}

// MeasureScalar sets a scalar (higher-is-better) measure function;
// only the throughput dimension of each vector is populated.
func (q *Query) MeasureScalar(fn func(*ExploreConfig) (float64, error)) *Query {
	if fn == nil {
		q.measure = nil
		return q
	}
	return q.Measure(func(c *ExploreConfig) (Metrics, error) {
		v, err := fn(c)
		if err != nil {
			return Metrics{}, err
		}
		return Metrics{Throughput: v}, nil
	})
}

// Constrain adds one feasibility bound: the metric's value must satisfy
// `value op bound`. Call it repeatedly to intersect constraints, e.g. a
// throughput floor AND a p99 ceiling AND a memory ceiling. Constraints
// in their natural direction (AtLeast on rates, AtMost on costs) also
// drive monotonic pruning; unnatural ones only filter.
func (q *Query) Constrain(m Metric, op ConstraintOp, bound float64) *Query {
	q.constraints = append(q.constraints, ExploreConstraint{Metric: m, Op: op, Bound: bound})
	return q
}

// Floor is Constrain(m, AtLeast, bound).
func (q *Query) Floor(m Metric, bound float64) *Query { return q.Constrain(m, AtLeast, bound) }

// Ceiling is Constrain(m, AtMost, bound).
func (q *Query) Ceiling(m Metric, bound float64) *Query { return q.Constrain(m, AtMost, bound) }

// RankBy sets the ranking metric — the dimension Measurement.Perf and
// the DOT shading report. Default: the first constraint's metric, or
// throughput when unconstrained.
func (q *Query) RankBy(m Metric) *Query {
	q.metric = m
	return q
}

// Workers sets the number of concurrent measurement goroutines
// (<= 0: GOMAXPROCS). Results are byte-identical for every value.
func (q *Query) Workers(n int) *Query {
	q.workers = n
	return q
}

// Prune toggles poset-aware monotonic pruning (§5): skip a
// configuration when a strictly-less-safe ancestor already violated a
// monotone constraint.
func (q *Query) Prune(on bool) *Query {
	q.prune = on
	return q
}

// MeasureBudget caps the number of fresh measurements a run may spend
// (<= 0: unlimited, the default) and switches the engine to budgeted
// guided search: branch-and-bound over the safety posets when pruning
// is on — one probe failing a monotone floor prunes its whole up-set
// before measuring it — then successive-halving ranked sampling of
// the rest. Configurations the budget never reaches are skipped
// (Result.Skipped); everything reported also appears, bit-for-bit, in
// the exhaustive run's result. Memo/Cache hits are free: they never
// consume budget. For a fixed (budget, Seed) pair results are
// byte-identical at every worker count.
func (q *Query) MeasureBudget(n int) *Query {
	q.budget = n
	return q
}

// Seed sets the sampling seed of a budgeted run (see MeasureBudget):
// candidate order is a splittable PRNG stream over canonical
// configuration keys, so a different seed samples a different subset
// and a fixed seed always samples the same one. Ignored without a
// budget.
func (q *Query) Seed(s int64) *Query {
	q.seed = s
	return q
}

// DeltaOnly switches the run to delta re-exploration: only the
// configurations whose canonical identity is absent from the attached
// Cache (or backed Memo) are measured. The run's lookup of each key
// decides it: a stored key is skipped with its identical twins
// (Result.Skipped), and a key another run is measuring is joined and
// reported Cached. Stream yields in index order and Progress counts
// decisions, so neither depends on the order the skips are decided in.
// Fresh measurements write through to the store as usual, so after a
// delta run a plain warm run of the edited space yields the full
// merged report, byte-identical to a cold exhaustive run. Requires
// Cache or a Memo; incompatible with MeasureBudget; pruning is
// ignored.
func (q *Query) DeltaOnly() *Query {
	q.deltaOnly = true
	return q
}

// Memo attaches a measurement cache shared across runs (see
// NewExploreMemo). Results memoize under the workload's namespace plus
// any Namespace the caller adds.
func (q *Query) Memo(m *ExploreMemo) *Query {
	q.memo = m
	return q
}

// Cache attaches a persistent result store to the query: every Run
// (and Stream) opens the store directory — creating it on first use —
// consults it before measuring any configuration, writes every fresh
// measurement through to it, and flushes and closes it when the run
// returns. A rerun of the same query therefore measures only
// configurations the directory has never seen, in this process or any
// other — results are byte-identical whether the run is cold, warm or
// mixed, at any worker count; only the Evaluated/MemoHits statistics
// move. Corrupt, truncated or future-version store files are
// quarantined and re-measured, never trusted (see internal/store). A
// deferred store write failure surfaces from Run unless the run
// itself failed first (a completed-but-infeasible run counts as
// success for this purpose: the store error wins over ErrNoFeasible).
//
// The store namespace is the query's Workload/Namespace composition,
// so distinct workloads share one directory without collisions.
// Cache supersedes Memo: combining both in one query is an error —
// share the cache directory instead, it carries the same entries.
func (q *Query) Cache(dir string) *Query {
	q.cacheDir = dir
	q.cacheRO = false
	return q
}

// CacheReadOnly is Cache for a store that must not grow: hits load
// from the directory, misses measure as usual but nothing is written
// back, and opening a directory that does not exist is an error.
func (q *Query) CacheReadOnly(dir string) *Query {
	q.cacheDir = dir
	q.cacheRO = true
	return q
}

// Shard restricts the run to one deterministic slice of the space:
// the index-th of count contiguous, order-preserving, pairwise
// disjoint partitions of the canonical enumeration (sizes differ by
// at most one). Shards use exactly the memo keys the full run would,
// so count sharded runs — each with its own Cache directory, merged
// with flexos-merge or store.Merge — warm-start the unsharded query
// into a byte-identical result. Shard(0, 0) (the default) and
// Shard(0, 1) run the whole space; an out-of-range pair fails at Run.
func (q *Query) Shard(index, count int) *Query {
	q.shard = explore.Shard{Index: index, Count: count}
	return q
}

// SpaceHash digests the query's canonical identity — the composed
// memo namespace plus every configuration key, in enumeration order —
// into a 16-hex-digit handle. Two queries share a hash exactly when
// they would populate the same result-store entries, which makes the
// hash the natural cache key for a Cache directory (the CI
// warm-explore job keys its restored store on it). The hash covers
// the whole space regardless of Shard, so all shards of one
// exploration agree on it.
func (q *Query) SpaceHash() string {
	return q.space.Hash(q.namespaceKey())
}

// CanonicalKey digests everything about the query that can change the
// bytes of its result — the space identity (SpaceHash: composed memo
// namespace plus every configuration key), the ranking metric, the
// constraint conjunction, pruning, the shard, the measurement budget
// and seed, and delta mode — into a stable string. Two queries share a
// key exactly when Run is guaranteed to produce byte-identical results
// for both, which is what lets a serving layer (flexos-serve) coalesce
// concurrent requests onto one engine pass. Workers, Memo, Cache and
// the progress hooks are deliberately excluded: none of them can
// change a result, only statistics and wall-clock time.
func (q *Query) CanonicalKey() string { return q.snapshot().Key() }

// MemoNamespace returns the composed memo namespace the query's
// measurements are keyed under — the caller's Namespace joined with
// the Workload's identity. Together with a configuration it
// reproduces the exact memo/store key of that measurement (see
// MemoKey), which is how partial results travel between runs: a
// worker answering a shard reports (key, metrics) records, and any
// node holding the same namespace can replay them into its own memo.
func (q *Query) MemoNamespace() string { return q.namespaceKey() }

// SpaceSize returns the number of configurations the query would
// enumerate before sharding — the denominator of any Shard split.
func (q *Query) SpaceSize() int { return q.space.Len() }

// Namespace adds a caller-defined namespace component to the memo keys
// (e.g. a request count baked into a custom measure function). It
// composes with — never replaces — the Workload's own namespace.
func (q *Query) Namespace(s string) *Query {
	q.namespace = s
	return q
}

// Progress installs a progress callback, invoked after each
// configuration is decided (measured, memo-filled or pruned) with the
// count decided so far and the size of the explored slice (the shard,
// when one is set). It runs on the coordinating goroutine, never
// concurrently with itself.
func (q *Query) Progress(fn func(done, total int)) *Query {
	q.progress = fn
	return q
}

// namespaceKey composes the memo namespace: the caller's Namespace
// joined with the Workload's own identity.
func (q *Query) namespaceKey() string {
	ns := q.namespace
	if q.workload != "" {
		if ns != "" {
			ns += "|" + q.workload
		} else {
			ns = q.workload
		}
	}
	return ns
}

// snapshot copies the builder into an engine request without
// validating it.
func (q *Query) snapshot() explore.Request {
	return explore.Request{
		Space:         q.space,
		Measure:       q.measure,
		Metric:        q.metric,
		Constraints:   append([]ExploreConstraint(nil), q.constraints...),
		Workers:       q.workers,
		Prune:         q.prune,
		MeasureBudget: q.budget,
		Seed:          q.seed,
		DeltaOnly:     q.deltaOnly,
		Memo:          q.memo,
		Workload:      q.namespaceKey(),
		Shard:         q.shard,
		Observe:       q.observeProgress(),
	}
}

// observeProgress turns the Progress callback into the engine's
// per-decision hook: it counts decisions over the explored slice.
func (q *Query) observeProgress() func(int, *ExploreMeasurement) {
	if q.progress == nil {
		return nil
	}
	total, done := q.shard.Size(q.space.Len()), 0
	return func(int, *ExploreMeasurement) {
		done++
		q.progress(done, total)
	}
}

// request snapshots the builder into a validated engine request.
func (q *Query) request() (explore.Request, error) {
	if q.err != nil {
		return explore.Request{}, q.err
	}
	if q.measure == nil {
		return explore.Request{}, errors.New("flexos: query has no measurement source; call Workload, Measure or MeasureScalar")
	}
	if q.cacheDir != "" && q.memo != nil {
		return explore.Request{}, errors.New("flexos: Query.Cache and Query.Memo are exclusive; the cache directory already carries the memo's entries — share it instead")
	}
	if q.deltaOnly && q.cacheDir == "" && q.memo == nil {
		return explore.Request{}, errors.New("flexos: Query.DeltaOnly needs a store to diff against; call Cache or Memo")
	}
	return q.snapshot(), nil
}

// engineRun executes one snapshot of the query: it opens the cache
// store when one is configured (load-on-miss, write-through), runs the
// engine, and flushes and closes the store before returning — a store
// write failure surfaces here unless the run itself already failed.
func (q *Query) engineRun(ctx context.Context, req explore.Request) (*ExploreResult, error) {
	if q.cacheDir == "" {
		return explore.Engine{}.Run(ctx, req)
	}
	var (
		st  *store.Store
		err error
	)
	if q.cacheRO {
		st, err = store.OpenReadOnly(q.cacheDir)
	} else {
		st, err = store.Open(q.cacheDir)
	}
	if err != nil {
		return nil, err
	}
	req.Memo = explore.NewBackedMemo(st)
	res, rerr := explore.Engine{}.Run(ctx, req)
	// A deferred store write failure must not hide behind a completed
	// run: ErrNoFeasible still returns a full result, so the store
	// error wins there too — only a genuinely failed run outranks it.
	if cerr := st.Close(); cerr != nil && (rerr == nil || errors.Is(rerr, ErrNoFeasible)) {
		rerr = cerr
	}
	return res, rerr
}

// Run executes the query under ctx and returns the full exploration
// result. The error is nil on success; wraps ErrCanceled when ctx is
// canceled or its deadline expires; wraps ErrNoFeasible when the run
// completed but no configuration satisfied every constraint (the
// Result is still returned, fully populated); or is a *MeasureError
// when a measurement failed.
func (q *Query) Run(ctx context.Context) (*ExploreResult, error) {
	req, err := q.request()
	if err != nil {
		return nil, err
	}
	return q.engineRun(ctx, req)
}

// Stream executes the query incrementally: it returns an iterator over
// (configuration, metric vector) pairs — one per evaluated
// configuration, yielded as soon as the engine decides it — plus a
// final function that reports the complete *ExploreResult (and error)
// once iteration has finished.
//
//	stream, final := q.Stream(ctx)
//	for cfg, m := range stream {
//		fmt.Printf("%s: %s\n", cfg.Label(), m)
//	}
//	res, err := final()
//
// Pairs are yielded in input order regardless of worker count — the
// stream holds back out-of-order completions until every earlier
// configuration is decided (see Follow) — so streamed output is
// byte-identical for any Workers value, at the cost of bounded
// buffering. Pruned configurations carry no vector and are not
// yielded.
//
// The iterator is single-use. Breaking out of the loop cancels the
// remaining exploration; final then reports ErrCanceled. Calling final
// without having consumed the iterator runs the exploration to
// completion first (no pairs are yielded), so final never blocks on an
// unconsumed stream.
func (q *Query) Stream(ctx context.Context) (iter.Seq2[*ExploreConfig, Metrics], func() (*ExploreResult, error)) {
	var (
		res *ExploreResult
		err error
		ran bool
	)
	run := func(yield func(*ExploreConfig, Metrics) bool) {
		ran = true
		from := 0
		res, err = q.Follow(ctx, func(decided []*ExploreMeasurement, next int) bool {
			for ; from < next; from++ {
				if m := decided[from]; m.Evaluated && !yield(m.Config, m.Metrics) {
					return false
				}
			}
			return true
		})
	}
	seq := iter.Seq2[*ExploreConfig, Metrics](run)
	final := func() (*ExploreResult, error) {
		if !ran {
			run(func(*ExploreConfig, Metrics) bool { return true })
		}
		return res, err
	}
	return seq, final
}

// Follow executes the query like Run and reports its decisions in
// input order as they become final. decided is the run's one
// per-configuration array over the explored slice (the shard, when one
// is set): decided[i] points at configuration i's Measurement in the
// Result being built, nil until the configuration is decided. Each
// time the decided prefix grows, fn is called on the coordinating
// goroutine with the array and the prefix's new length next. The
// engine never rewrites a decided slot, so decided[:next] may be handed
// to other goroutines; it must not be modified. fn returning false
// cancels the rest of the run — fn is not called again — and Follow
// then reports ErrCanceled.
func (q *Query) Follow(ctx context.Context, fn func(decided []*ExploreMeasurement, next int) bool) (*ExploreResult, error) {
	req, err := q.request()
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Observe indices are relative to the explored slice, so the array
	// covers only that slice.
	n := req.Shard.Size(req.Space.Len())
	var (
		decided = make([]*ExploreMeasurement, n)
		next    int
		stopped bool
	)
	progress := req.Observe
	req.Observe = func(idx int, m *ExploreMeasurement) {
		if progress != nil {
			progress(idx, m)
		}
		decided[idx] = m
		if stopped || idx != next {
			return // the prefix grows only when its first gap fills
		}
		for next < n && decided[next] != nil {
			next++
		}
		if !fn(decided, next) {
			stopped = true
			cancel() // the consumer is done: wind the engine down
		}
	}
	res, err := q.engineRun(sctx, req)
	// The engine may decide the last configuration before the
	// consumer's stop cancels it, and then returns a completed run. A
	// stopped run still reports ErrCanceled, wrapped with the cause as
	// on the canceled path.
	if stopped && !errors.Is(err, ErrCanceled) {
		return nil, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(sctx))
	}
	return res, err
}
