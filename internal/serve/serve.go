// Package serve implements exploration-as-a-service: a long-running
// HTTP daemon (cmd/flexos-serve) that executes exploration requests
// on the shared engine over one process-wide two-tier memo, so many
// callers asking for overlapping slices of the configuration space
// pay for each measurement once.
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
// Every record the daemon learns lives in one *store.Store, and that
// store backs the memo: the persistent store under Config.CacheDir
// (with CacheReadOnly it indexes new records in memory and never
// writes its directory), an in-memory store otherwise. Fresh
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
// disconnects, and removed from the table the moment it finishes, so
// the table only ever holds work that can still be joined — repeats
// of a finished request re-run the engine against the warm memo
// instead, which re-measures nothing.
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
	// workers register on /v1/cluster/join, and eligible exploration
	// requests gather shard records from the fleet before the local
	// re-rank (see runFlight). The server installs the coordinator's
	// inline fallback and starts its failure detector.
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
	// their own; FlightsStarted the engine passes actually begun.
	Requests       int64 `json:"requests"`
	Coalesced      int64 `json:"coalesced"`
	FlightsStarted int64 `json:"flights_started"`
	// InFlight and Subscribers are gauges: engine runs currently
	// executing (or queued) and callers currently attached to them.
	InFlight    int `json:"in_flight"`
	Subscribers int `json:"subscribers"`
	// Completed / Failed / Canceled count finished flights by outcome
	// (a run that completed but satisfied no constraint counts as
	// completed: it produced a full report).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Evaluated and MemoHits accumulate the per-run statistics across
	// completed flights; HitRatePct is their ratio — how much of the
	// served work the two-tier memo absorbed.
	Evaluated  int64   `json:"evaluated"`
	MemoHits   int64   `json:"memo_hits"`
	HitRatePct float64 `json:"hit_rate_pct"`
	// MemoEntries is the in-memory tier's current size; Store the
	// persistent tier's statistics when one is configured.
	MemoEntries int          `json:"memo_entries"`
	Store       *store.Stats `json:"store,omitempty"`
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
	// ClusterDegraded counts coordinator flights that fell back to a
	// plain local run because the gather itself failed.
	ClusterDegraded int64 `json:"cluster_degraded,omitempty"`
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

	// Test seams (package-internal): onFlightStart runs on the flight
	// goroutine after the flight is admitted, before the engine pass;
	// onDecided runs once per streamed measurement of every pass.
	onFlightStart func(key string)
	onDecided     func(key string)
}

// flight is one in-flight (or just-finished) engine pass, shared by
// every subscriber whose request coalesced onto it.
type flight struct {
	key          string
	scenarioMode bool
	ns           string      // memo namespace (canonical across subscribers)
	creq         cli.Request // the first subscriber's request (canonical-equal to all)
	ctx          context.Context
	cancel       context.CancelFunc

	mu      sync.Mutex
	lines   []string      // streamed measurements, in Query.Stream order
	notify  chan struct{} // closed and replaced on every append
	subs    int
	records []cli.Record // partial-result codec, rendered on demand

	done chan struct{} // closed after res/err are set
	res  *flexos.ExploreResult
	err  error
}

// appendLine publishes one streamed measurement to the subscribers.
func (f *flight) appendLine(line string) {
	f.mu.Lock()
	f.lines = append(f.lines, line)
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
}

// snapshot returns the lines decided since from, and the channel that
// signals the next append.
func (f *flight) snapshot(from int) ([]string, chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lines[from:], f.notify
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
		cfg.Cluster.SetLocal(s.localRecords)
		cfg.Cluster.StartHealth(s.baseCtx)
	}
	return s, nil
}

// localRecords is the coordinator's inline fallback: run the shard
// sub-request on this node's own engine (through the shared memo, so
// fresh measurements enter the store) and answer the partial-result
// codec. ErrNoFeasible is a complete answer, not a failure.
func (s *Server) localRecords(ctx context.Context, sub cli.Request) ([]cli.Record, error) {
	q, info, err := sub.Build()
	if err != nil {
		return nil, err
	}
	q.Workers(s.cfg.Workers).Memo(s.memo)
	res, err := q.Run(ctx)
	if err != nil && !errors.Is(err, flexos.ErrNoFeasible) {
		return nil, err
	}
	return cli.RecordsOf(info.Namespace, res), nil
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
	s.mu.Unlock()
	st.Subscribers = subs
	st.UptimeMs = time.Since(s.start).Milliseconds()
	if st.Evaluated+st.MemoHits > 0 {
		st.HitRatePct = 100 * float64(st.MemoHits) / float64(st.Evaluated+st.MemoHits)
	}
	st.MemoEntries = s.memo.Len()
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

// attach joins the request to the in-flight run for key, starting one
// when none exists.
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
		notify:       make(chan struct{}),
		done:         make(chan struct{}),
		subs:         1,
	}
	s.flights[key] = f
	s.stats.InFlight++
	if req.Workers <= 0 {
		q.Workers(s.cfg.Workers)
	}
	q.Memo(s.memo)
	s.wg.Add(1)
	go s.runFlight(f, q)
	return f, false, nil
}

// detach drops one subscriber; the last one out cancels a run nobody
// is waiting for (the engine winds its worker pool down promptly).
func (s *Server) detach(f *flight) {
	s.mu.Lock()
	f.mu.Lock()
	f.subs--
	orphaned := f.subs == 0
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
			delete(s.flights, f.key)
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

	// Coordinator path: gather the shards' partial results from the
	// fleet and replay them into the store (the memo's backing)
	// BEFORE the local pass. The pass below then runs
	// fully warm — every configuration the workers measured is a
	// backing hit, indistinguishable from a fresh measurement — so the
	// streamed lines and report are byte-identical to a single-node
	// run, and anything the cluster failed to deliver (a dead worker,
	// a dropped conflict) is simply measured here, same bytes either
	// way. Budgeted and delta-only requests skip the fan-out: their
	// semantics are node-local (see Config.Cluster).
	if c := s.cfg.Cluster; c != nil && f.creq.MeasureBudget == 0 && !f.creq.DeltaOnly {
		recs, gerr := c.Gather(f.ctx, f.creq)
		if gerr == nil {
			s.ingest(recs)
		} else if f.ctx.Err() == nil {
			s.mu.Lock()
			s.stats.ClusterDegraded++
			s.mu.Unlock()
		}
	}

	// Always run streaming: the decided lines are shared state every
	// streaming subscriber replays and then follows, whatever moment
	// it attached, so all of them see the same byte sequence.
	seq, final := q.Stream(f.ctx)
	for cfg, m := range seq {
		f.appendLine(cli.StreamLine(f.scenarioMode, cfg, m))
		if s.onDecided != nil {
			s.onDecided(f.key)
		}
	}
	res, err := final()
	if ferr := s.st.Flush(); ferr != nil {
		s.mu.Lock()
		s.stats.StoreFlushErrors++
		s.mu.Unlock()
	}
	finish(res, err)
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
	for {
		lines, notify := f.snapshot(next)
		for _, line := range lines {
			next++
			if !emit(cli.Response{Line: line}) {
				return
			}
		}
		select {
		case <-f.done:
			// Everything published happens-before done: one last drain,
			// then the final document.
			lines, _ := f.snapshot(next)
			for _, line := range lines {
				next++
				if !emit(cli.Response{Line: line}) {
					return
				}
			}
			resp, _ := render(f, req, info)
			emit(resp)
			return
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
