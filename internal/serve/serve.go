// Package serve implements exploration-as-a-service: a long-running
// HTTP daemon (cmd/flexos-serve) that executes exploration requests
// on the shared engine over one process-wide memo, so many callers
// asking for overlapping slices of the configuration space pay for
// each measurement once.
//
// # Protocol
//
//   - POST /v1/explore with a cli.Request JSON body. The complete
//     form answers one cli.Response document whose Report is
//     byte-identical to what the same request run locally through
//     flexos-explore would print. With "stream": true the answer is
//     NDJSON — one {"line": …} document per measured configuration,
//     mirroring Query.Stream's input-order guarantee, then a final
//     document carrying the Report and Stats.
//   - GET /healthz — liveness.
//   - GET /statsz — serving statistics (flights, coalescing, hit
//     rates, in-flight gauges) as JSON.
//   - GET /v1/store/pull?gen=G&since=N — one page of the store-sync
//     log, for a peer's puller (see StartPull).
//
// # Record tier
//
// Every record the daemon learns lives in one *store.Store, the
// memo's only record tier; the memo itself holds just the
// measurements in flight. The store is the persistent one under
// Config.CacheDir (with CacheReadOnly it indexes new records in memory
// and never writes its directory), an in-memory one otherwise. Fresh
// measurements write through to it, records gathered from a cluster
// or pulled from a peer are inserted into it, and its arrival order
// is the store-sync log that /v1/store/pull pages out.
//
// # Coalescing
//
// The core mechanism is single-flight request coalescing: concurrent
// requests whose canonical key (Query.CanonicalKey — space hash ⊕
// memo namespace ⊕ constraints ⊕ pruning ⊕ shard) collide attach to
// one in-flight engine run, and every subscriber renders its response
// from the same shared result — byte-identical by construction, and
// proven against the direct-Query oracle in serve_test.go. Requests
// differing only in worker count coalesce too: worker count never
// changes result bytes. Disjoint requests run concurrently under a
// bounded flight budget. A flight is canceled (its context threads
// into the engine's worker pool) only when its last subscriber
// disconnects.
//
// # Retained flights
//
// Results are cached at the response layer, in the flight table
// itself: a finished flight whose pass measured nothing stays in the
// table, and a repeat of its key attaches to it like a coalesced
// subscriber of a finished run — it renders from the flight's Result
// (or replays its decided list, for a stream) and runs no engine pass.
// Such a pass read only records that were already stored, and a stored
// record never changes, so re-running it would return the same Result
// and statistics byte for byte (see retainable). Every other flight —
// canceled, failed, or one that measured — leaves the table the moment
// it finishes. Retention is bounded by maxRetainedFlights and
// maxRetainedConfigs, least recently used first out.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/cluster"
	"flexos/internal/explore"
	"flexos/internal/machine"
	"flexos/internal/store"
)

// Config configures a Server.
type Config struct {
	// Workers is the engine worker count for requests that do not name
	// their own (<= 0: GOMAXPROCS). Worker count never changes result
	// bytes, only wall-clock time.
	Workers int
	// MaxFlights bounds how many engine runs execute concurrently
	// (<= 0: GOMAXPROCS). Excess flights queue; their subscribers wait.
	MaxFlights int
	// CacheDir, when non-empty, backs the process-wide memo with a
	// persistent result store: measurements survive daemon restarts.
	// CacheReadOnly opens it read-only: records learned later are
	// indexed in memory and the directory is never written.
	CacheDir      string
	CacheReadOnly bool
	// Cluster, when non-nil, makes this daemon a cluster coordinator:
	// workers register on /v1/cluster/join, and the pass of an eligible
	// exploration request gathers shard records from the fleet on its
	// first store miss, once (see fleetBacking) — a request the store
	// already covers sends no worker anything. The server starts the
	// coordinator's failure detector.
	//
	// Budgeted (measure_budget > 0) and delta-only requests never fan
	// out: a budgeted run decides strictly more on a warm memo than a
	// cold one would, and a delta re-exploration diffs against this
	// node's store — both are node-local semantics, served locally.
	Cluster *cluster.Coordinator
	// SelfURL is the daemon's own advertised base URL, when known. A
	// coordinator refuses a worker joining under this URL: dispatching
	// to yourself coalesces the sub-request onto the flight that
	// issued it — a deadlock, not a fleet.
	SelfURL string
}

// Stats is the /statsz document.
type Stats struct {
	// UptimeMs is the time since New.
	UptimeMs int64 `json:"uptime_ms"`
	// Requests counts exploration requests accepted; Coalesced those
	// that attached to an already-in-flight run instead of starting
	// their own; RetainedHits those answered by a retained flight, which
	// runs no engine pass; FlightsStarted the engine passes actually
	// begun.
	Requests       int64 `json:"requests"`
	Coalesced      int64 `json:"coalesced"`
	RetainedHits   int64 `json:"retained_hits"`
	FlightsStarted int64 `json:"flights_started"`
	// InFlight and Subscribers are gauges: engine runs currently
	// executing (or queued) and callers currently attached to a flight,
	// running or retained.
	InFlight    int `json:"in_flight"`
	Subscribers int `json:"subscribers"`
	// RetainedFlights and RetainedConfigs are gauges: the finished
	// flights held for repeats and the configurations of the Spaces
	// their Results pin (a shard's counts the whole Space it was cut
	// from), at most maxRetainedFlights and maxRetainedConfigs.
	RetainedFlights int `json:"retained_flights"`
	RetainedConfigs int `json:"retained_configs"`
	// Completed / Failed / Canceled count finished flights by outcome
	// (a run that completed but satisfied no constraint counts as
	// completed: it produced a full report).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Evaluated and MemoHits accumulate the per-run statistics across
	// completed flights; HitRatePct is their ratio — how much of the
	// engine's work the memo absorbed. Like FlightsStarted and the
	// outcome counters they count engine passes only: a request served
	// by a retained flight adds to none of them.
	Evaluated  int64   `json:"evaluated"`
	MemoHits   int64   `json:"memo_hits"`
	HitRatePct float64 `json:"hit_rate_pct"`
	// MemoEntries counts measurements in flight on the shared memo (0
	// when idle: records live in the store; a coordinator flight that
	// may fan out measures through a memo of its own, not counted
	// here); Store the persistent store's statistics.
	MemoEntries int          `json:"memo_entries"`
	Store       *store.Stats `json:"store,omitempty"`
	// SpaceCache describes the process-wide cache of enumerated spaces
	// (with their keys and safety orders) that every request's space is
	// drawn from: entries held, hits, misses and evictions.
	SpaceCache cli.SpaceCacheStats `json:"space_cache"`
	// StoreFlushErrors counts failed post-flight store flushes (the
	// cache degrades; serving continues).
	StoreFlushErrors int64 `json:"store_flush_errors,omitempty"`
	// SyncLogLen is the length of the store's arrival order (the
	// store-sync log) — the upper bound of a peer's pull cursor.
	// RecordsIngested counts records learned from peers (gathered
	// shards, pulled pages); IngestConflicts those dropped because they
	// disagreed with a local value; PullPages and PullErrors describe
	// this node's own puller.
	SyncLogLen      int   `json:"sync_log_len"`
	RecordsIngested int64 `json:"records_ingested"`
	IngestConflicts int64 `json:"ingest_conflicts,omitempty"`
	PullPages       int64 `json:"pull_pages,omitempty"`
	PullErrors      int64 `json:"pull_errors,omitempty"`
	// Cluster is the coordinator's fleet view — membership and the
	// per-worker dispatch/re-dispatch/failure counters — when this
	// daemon coordinates one.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// RequestLatency summarizes wall-clock serving latency per explore
	// request (decode through final byte), over a sliding window of
	// recent requests. A coalesced subscriber counts like any other:
	// what it waited is what it waited.
	RequestLatency LatencyStats `json:"request_latency"`
}

// LatencyStats is the /statsz latency section: nearest-rank
// percentiles (the machine.LatencySampler definition) in milliseconds
// over the recent-request window, plus the all-time request count.
type LatencyStats struct {
	Count  int64   `json:"count"`
	Window int     `json:"window"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// latencyWindow keeps the last latWindowSize request durations (ns) in
// a ring. Percentiles over a bounded window track "lately" rather than
// "since boot", and the memory cost is fixed.
const latWindowSize = 4096

type latencyWindow struct {
	mu    sync.Mutex
	buf   [latWindowSize]uint64
	next  int
	n     int
	total int64
}

func (lw *latencyWindow) record(d time.Duration) {
	lw.mu.Lock()
	lw.buf[lw.next] = uint64(d.Nanoseconds())
	lw.next = (lw.next + 1) % latWindowSize
	if lw.n < latWindowSize {
		lw.n++
	}
	lw.total++
	lw.mu.Unlock()
}

// stats reduces the window with the shared nearest-rank sampler.
func (lw *latencyWindow) stats() LatencyStats {
	lw.mu.Lock()
	var smp machine.LatencySampler
	for i := 0; i < lw.n; i++ {
		smp.Record(lw.buf[i])
	}
	st := LatencyStats{Count: lw.total, Window: lw.n}
	lw.mu.Unlock()
	ms := func(ns uint64) float64 { return float64(ns) / 1e6 }
	st.P50Ms = ms(smp.Percentile(50))
	st.P95Ms = ms(smp.Percentile(95))
	st.P99Ms = ms(smp.Percentile(99))
	st.MaxMs = ms(smp.Max())
	return st
}

// Server is the exploration service. Create it with New, serve it as
// an http.Handler, and Close it to cancel in-flight work and flush
// the persistent store. Safe for concurrent use.
type Server struct {
	cfg   Config
	memo  *explore.Memo
	st    *store.Store // the memo's backing and the store-sync log
	gen   string       // incarnation of st's arrival order, for pull cursors
	start time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	sem        chan struct{}
	wg         sync.WaitGroup

	mu      sync.Mutex
	flights map[string]*flight
	closed  bool
	stats   Stats
	lat     latencyWindow

	// retained lists the retained flights (all of them also in
	// flights), least recently used first; retainedConfigs sums their
	// Results' configurations.
	retained        []*flight
	retainedConfigs int

	// Test seams (package-internal): onFlightStart runs on the flight
	// goroutine after the flight is admitted, before the engine pass;
	// onDecided runs once per streamed measurement of every pass.
	onFlightStart func(key string)
	onDecided     func(key string)
}

// Retention bounds: at most maxRetainedFlights retained flights,
// whose Results pin Spaces of at most maxRetainedConfigs
// configurations in all. The second bound is what caps memory: a
// retained flight holds its Result's rows (and as many records, once
// a coordinator asked include_records), and its Result pins the Space
// it explored — for a shard, the whole Space the shard was cut from.
// Each flight counts that Space's size (Result.SpaceSize), which is
// at least its rows; flights over one cached Space each count it, so
// the bound over-counts shared Spaces rather than under-counting. A
// flight larger than the bound alone is never retained.
const (
	maxRetainedFlights = 64
	maxRetainedConfigs = 1 << 14
)

// flight is one in-flight (or finished) engine pass, shared by every
// subscriber whose request coalesced onto it, and, once retained, by
// every later request for its key.
type flight struct {
	key          string
	scenarioMode bool
	ns           string      // memo namespace (canonical across subscribers)
	creq         cli.Request // the first subscriber's request (canonical-equal to all)
	ctx          context.Context
	cancel       context.CancelFunc

	mu      sync.Mutex
	decided []*flexos.ExploreMeasurement // the pass's Query.Follow array, final below next
	next    int
	notify  chan struct{} // made by a waiting snapshot, closed and cleared by the next publish
	subs    int
	records []cli.Record // partial-result codec, rendered on demand

	done chan struct{} // closed after res/err are set
	res  *flexos.ExploreResult
	err  error

	// retained is set (under Server.mu) when the finished flight stays
	// in the table for repeats; configs is the size of the Space its
	// Result pins.
	retained bool
	configs  int
}

// publish hands the pass's decided prefix, decided[:next], to the
// subscribers. The slots point into the run's Result and never change
// once decided, so nothing is copied.
func (f *flight) publish(decided []*flexos.ExploreMeasurement, next int) {
	f.mu.Lock()
	f.decided, f.next = decided, next
	if f.notify != nil {
		close(f.notify)
		f.notify = nil
	}
	f.mu.Unlock()
}

// snapshot returns the configurations decided since from, in input
// order (pruned ones included: only evaluated ones are streamed), and
// the channel that signals the next publish. The channel is made on
// demand, so a flight no streaming subscriber waits on makes none.
func (f *flight) snapshot(from int) ([]*flexos.ExploreMeasurement, chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.notify == nil {
		f.notify = make(chan struct{})
	}
	return f.decided[from:f.next], f.notify
}

// recordsOnce renders the flight's partial-result codec on first
// demand (a coordinator asking include_records), caching it for the
// other subscribers. Only valid after the flight is done.
func (f *flight) recordsOnce() []cli.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.records == nil && f.res != nil {
		f.records = cli.RecordsOf(f.ns, f.res)
	}
	return f.records
}

// New creates a Server over its record store: the persistent store
// when configured, an in-memory one otherwise. The store backs the
// memo and is the log /v1/store/pull pages out to other nodes: every
// record the daemon learns — loaded at open, measured, or ingested
// from a peer — lands in it.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxFlights <= 0 {
		cfg.MaxFlights = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.MaxFlights),
		flights: make(map[string]*flight),
		gen:     strconv.FormatInt(time.Now().UnixNano(), 36),
	}
	var err error
	switch {
	case cfg.CacheDir == "":
		s.st = store.Memory()
	case cfg.CacheReadOnly:
		s.st, err = store.OpenReadOnly(cfg.CacheDir)
	default:
		s.st, err = store.Open(cfg.CacheDir)
	}
	if err != nil {
		return nil, err
	}
	s.memo = explore.NewBackedMemo(s.st)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.Cluster != nil {
		cfg.Cluster.StartHealth(s.baseCtx)
	}
	return s, nil
}

// Abort stops accepting new requests and cancels every in-flight
// engine run, without waiting: subscribers receive their cancellation
// responses promptly, which is what lets an HTTP graceful drain
// finish fast instead of riding out its whole grace period behind a
// long exploration. Close completes the shutdown.
func (s *Server) Abort() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
}

// Close aborts (if Abort has not run already), waits for the flight
// goroutines, and flushes and closes the store. The first store error
// is returned.
func (s *Server) Close() error {
	s.Abort()
	s.wg.Wait()
	return s.st.Close()
}

// Stats snapshots the serving statistics.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	subs := 0
	for _, f := range s.flights {
		f.mu.Lock()
		subs += f.subs
		f.mu.Unlock()
	}
	st.RetainedFlights, st.RetainedConfigs = len(s.retained), s.retainedConfigs
	s.mu.Unlock()
	st.Subscribers = subs
	st.UptimeMs = time.Since(s.start).Milliseconds()
	if st.Evaluated+st.MemoHits > 0 {
		st.HitRatePct = 100 * float64(st.MemoHits) / float64(st.Evaluated+st.MemoHits)
	}
	st.MemoEntries = s.memo.Len()
	st.SpaceCache = cli.SpaceCache()
	st.SyncLogLen = s.st.Len()
	if s.cfg.CacheDir != "" {
		ss := s.st.Stats()
		st.Store = &ss
	}
	if s.cfg.Cluster != nil {
		st.Cluster = s.cfg.Cluster.Stats()
	}
	st.RequestLatency = s.lat.stats()
	return st
}

// ServeHTTP routes the service endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		s.handleHealthz(w, r)
	case "/statsz":
		s.handleStatsz(w, r)
	case cli.ExplorePath:
		s.handleExplore(w, r)
	case cli.JoinPath:
		s.handleJoin(w, r)
	case cli.MembersPath:
		s.handleMembers(w, r)
	case cli.PullPath:
		s.handlePull(w, r)
	default:
		http.NotFound(w, r)
	}
}

// handleJoin registers a worker with the coordinator (idempotent; a
// worker heartbeats re-joins). Plain daemons answer 404: joining is a
// coordinator capability.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cluster == nil {
		http.Error(w, "not a coordinator", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4096))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read join request: %v", err))
		return
	}
	var jr cli.JoinRequest
	if err := json.Unmarshal(data, &jr); err != nil || jr.URL == "" {
		writeError(w, http.StatusBadRequest, "join body must be {\"url\": \"http://worker:port\"}")
		return
	}
	u, err := url.Parse(jr.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("join url %q is not an absolute http(s) base URL", jr.URL))
		return
	}
	worker := strings.TrimSuffix(jr.URL, "/")
	if s.cfg.SelfURL != "" && worker == strings.TrimSuffix(s.cfg.SelfURL, "/") {
		writeError(w, http.StatusBadRequest, "a coordinator cannot join itself as a worker")
		return
	}
	s.cfg.Cluster.Join(worker)
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "members": len(s.cfg.Cluster.Stats().Workers)})
}

// handleMembers reports the coordinator's fleet view.
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cluster == nil {
		http.Error(w, "not a coordinator", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Cluster.Stats())
}

// handlePull serves one page of the store-sync log to a peer.
func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	since, err := strconv.Atoi(q.Get("since"))
	if q.Get("since") != "" && err != nil {
		writeError(w, http.StatusBadRequest, "since must be an integer cursor")
		return
	}
	writeJSON(w, http.StatusOK, s.page(q.Get("gen"), since))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_ms": time.Since(s.start).Milliseconds()})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cli.MaxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read request: %v", err))
		return
	}
	// The query belongs to this subscriber: the flight shares the
	// engine pass, but rendering (pareto, verbose, constraint order)
	// is per-request, carried by info.
	req, q, info, err := cli.DecodeRequestQuery(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Per-request serving latency: from a validly decoded request to
	// the end of its response, whatever the outcome — what a load
	// generator on the other side observes.
	defer func(t0 time.Time) { s.lat.record(time.Since(t0)) }(time.Now())
	key := q.CanonicalKey()

	f, coalesced, err := s.attach(key, q, info, &req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer s.detach(f)
	if coalesced {
		w.Header().Set("X-Flexos-Coalesced", "true")
	}

	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	if req.Stream {
		s.respondStream(w, ctx, f, &req, info)
	} else {
		s.respondComplete(w, ctx, f, &req, info)
	}
}

// attach joins the request to the flight for key — a running one,
// which it reports as coalesced, or a retained one — starting one when
// none exists.
func (s *Server) attach(key string, q *flexos.Query, info *cli.BuildInfo, req *cli.Request) (*flight, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errors.New("serve: server is shutting down")
	}
	s.stats.Requests++
	if f, ok := s.flights[key]; ok {
		f.mu.Lock()
		f.subs++
		f.mu.Unlock()
		if f.retained {
			s.stats.RetainedHits++
			i := slices.Index(s.retained, f)
			s.retained = append(slices.Delete(s.retained, i, i+1), f)
			return f, false, nil
		}
		s.stats.Coalesced++
		return f, true, nil
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	f := &flight{
		key:          key,
		scenarioMode: info.ScenarioMode,
		ns:           info.Namespace,
		creq:         *req,
		ctx:          ctx,
		cancel:       cancel,
		done:         make(chan struct{}),
		subs:         1,
	}
	s.flights[key] = f
	s.stats.InFlight++
	if req.Workers <= 0 {
		q.Workers(s.cfg.Workers)
	}
	if s.cfg.Cluster != nil && req.MeasureBudget == 0 && !req.DeltaOnly {
		q.Memo(explore.NewBackedMemo(&fleetBacking{s: s, f: f}))
	} else {
		q.Memo(s.memo)
	}
	s.wg.Add(1)
	go s.runFlight(f, q)
	return f, false, nil
}

// detach drops one subscriber; the last one out cancels a run nobody
// is waiting for (the engine winds its worker pool down promptly). A
// retained flight stays: it has finished, and only eviction removes it.
func (s *Server) detach(f *flight) {
	s.mu.Lock()
	f.mu.Lock()
	f.subs--
	orphaned := f.subs == 0 && !f.retained
	f.mu.Unlock()
	if orphaned {
		if cur, ok := s.flights[f.key]; ok && cur == f {
			delete(s.flights, f.key)
		}
	}
	s.mu.Unlock()
	if orphaned {
		f.cancel()
	}
}

// runFlight executes one engine pass under the flight budget and
// publishes its outcome.
func (s *Server) runFlight(f *flight, q *flexos.Query) {
	defer s.wg.Done()
	defer f.cancel()

	finish := func(res *flexos.ExploreResult, err error) {
		s.mu.Lock()
		if cur, ok := s.flights[f.key]; ok && cur == f {
			if retainable(res, err, f.creq.DeltaOnly) {
				s.retain(f, res.SpaceSize())
			} else {
				delete(s.flights, f.key)
			}
		}
		s.stats.InFlight--
		switch {
		case err == nil || errors.Is(err, flexos.ErrNoFeasible):
			s.stats.Completed++
			if res != nil {
				s.stats.Evaluated += int64(res.Evaluated)
				s.stats.MemoHits += int64(res.MemoHits)
			}
		case errors.Is(err, flexos.ErrCanceled):
			s.stats.Canceled++
		default:
			s.stats.Failed++
		}
		s.mu.Unlock()
		f.res, f.err = res, err
		close(f.done)
	}

	// The flight budget: wait for a slot unless every subscriber has
	// already walked away (or the server is closing).
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-f.ctx.Done():
		finish(nil, fmt.Errorf("serve: %w", explore.ErrCanceled))
		return
	}

	s.mu.Lock()
	s.stats.FlightsStarted++
	s.mu.Unlock()
	if s.onFlightStart != nil {
		s.onFlightStart(f.key)
	}

	// Always follow the pass: its decided prefix is shared state every
	// streaming subscriber replays and then follows, whatever moment
	// it attached, so all of them see the same byte sequence.
	from := 0
	res, err := q.Follow(f.ctx, func(decided []*flexos.ExploreMeasurement, next int) bool {
		f.publish(decided, next)
		if s.onDecided != nil {
			for _, m := range decided[from:next] {
				if m.Evaluated {
					s.onDecided(f.key)
				}
			}
		}
		from = next
		return true
	})
	if ferr := s.st.Flush(); ferr != nil {
		s.mu.Lock()
		s.stats.StoreFlushErrors++
		s.mu.Unlock()
	}
	finish(res, err)
}

// retainable reports whether a finished pass read only records that
// were already stored, which makes it a pure function of the store: a
// repeat would read the same records, because the store keeps the
// first value for a key and deletes none, and so return the same
// Result and statistics byte for byte. Every engine mode measures a
// configuration whose record was missing, so such a pass evaluated
// nothing — except that a pass may join another flight's measurement
// in progress on the shared memo, a memo hit whose record was not yet
// stored. Outside a delta run that hit fills the configuration exactly
// as its stored record would; a delta run skips stored records
// instead, so one retained there must have no hit at all. (On a
// coordinator, fleetBacking stores gathered records before reading
// them.) A canceled or failed pass is never retained.
func retainable(res *flexos.ExploreResult, err error, delta bool) bool {
	if res == nil || err != nil && !errors.Is(err, flexos.ErrNoFeasible) {
		return false
	}
	return res.Evaluated == 0 && (!delta || res.MemoHits == 0)
}

// retain keeps the finished flight f, pinning n configurations, in the
// table for repeats, evicting the least recently used retained flights
// beyond the bounds. Called with s.mu held.
func (s *Server) retain(f *flight, n int) {
	if n > maxRetainedConfigs {
		delete(s.flights, f.key)
		return
	}
	f.retained, f.configs = true, n
	s.retained = append(s.retained, f)
	s.retainedConfigs += n
	for len(s.retained) > maxRetainedFlights || s.retainedConfigs > maxRetainedConfigs {
		old := s.retained[0]
		s.retained = slices.Delete(s.retained, 0, 1)
		s.retainedConfigs -= old.configs
		if cur, ok := s.flights[old.key]; ok && cur == old {
			delete(s.flights, old.key)
		}
	}
}

// render builds the subscriber's view of a finished flight. The
// engine pass is shared; rendering (title, constraint order, pareto,
// verbose) belongs to each subscriber's own request — identical
// requests therefore render identical bytes.
func render(f *flight, req *cli.Request, info *cli.BuildInfo) (cli.Response, int) {
	noFeasible := errors.Is(f.err, flexos.ErrNoFeasible)
	if f.err != nil && !noFeasible {
		status := http.StatusInternalServerError
		if errors.Is(f.err, flexos.ErrCanceled) {
			status = http.StatusServiceUnavailable
		}
		return cli.Response{Key: f.key, Error: f.err.Error()}, status
	}
	st := cli.StatsOf(f.res)
	resp := cli.Response{
		Key:    f.key,
		Report: cli.RenderReport(info.Title, f.res, info.Constraints, info.ScenarioMode, req.Pareto, req.Verbose, noFeasible),
		Stats:  &st,
	}
	if req.IncludeRecords {
		resp.Records = f.recordsOnce()
	}
	return resp, http.StatusOK
}

func (s *Server) respondComplete(w http.ResponseWriter, ctx context.Context, f *flight, req *cli.Request, info *cli.BuildInfo) {
	select {
	case <-f.done:
	case <-ctx.Done():
		writeError(w, http.StatusGatewayTimeout, "request canceled or timed out while the exploration was in flight")
		return
	}
	resp, status := render(f, req, info)
	writeJSON(w, status, resp)
}

func (s *Server) respondStream(w http.ResponseWriter, ctx context.Context, f *flight, req *cli.Request, info *cli.BuildInfo) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev cli.Response) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	next := 0
	for finished := false; ; {
		decided, notify := f.snapshot(next)
		next += len(decided)
		for _, m := range decided {
			if m.Evaluated && !emit(cli.Response{Line: cli.StreamLine(f.scenarioMode, m.Config, m.Metrics)}) {
				return
			}
		}
		if finished {
			resp, _ := render(f, req, info)
			emit(resp)
			return
		}
		select {
		case <-f.done:
			// Everything published happens-before done: one last drain,
			// then the final document.
			finished = true
		case <-notify:
		case <-ctx.Done():
			emit(cli.Response{Key: f.key, Error: "request canceled or timed out while the exploration was in flight"})
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, cli.Response{Error: msg})
}
