// Package cluster turns N flexos-serve daemons into one logical
// exploration engine: when a coordinator's own pass first misses its
// store, the coordinator splits the request into disjoint shard
// sub-requests, places shard i on the live worker at index (r+i) mod n
// of the sorted fleet (r a hash of the request, so a repeated request
// lands on the same workers), and collects the workers' partial-result
// records into its store, from which the pass re-ranks locally — so a
// request the store already covers reaches no worker, and the answer
// is byte-identical to a single-node run at any worker count, any
// fan-out, and under any worker failure (a lost shard degrades to
// re-dispatch, and what no worker answers is left to the pass, which
// by determinism measures the same bytes).
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"time"

	"flexos"
	"flexos/internal/cli"
)

// maxRedispatch bounds how many surviving workers a shard is re-routed
// to after its owner fails, before it is left to the coordinator's own
// pass; healthTimeout bounds one failure-detector probe.
const (
	maxRedispatch = 2
	healthTimeout = time.Second
)

// Config shapes a Coordinator.
type Config struct {
	// Fanout is the number of disjoint shard sub-requests one gather
	// splits a request into (0: the live worker count at dispatch
	// time). Any value produces byte-identical output; fan-out only
	// moves where measurements happen.
	Fanout int
	// Retry is the per-call policy against one worker — transient
	// blips (dial errors, 5xx) retried with backoff before the shard
	// is re-dispatched to the next worker (nil: cli.DefaultRetry).
	Retry *cli.RetryPolicy
	// HealthInterval is the failure detector's probe period (0: 2s);
	// HealthStrikes is the consecutive-failure count that marks a
	// worker dead (0: 2). One probe is bounded by healthTimeout.
	HealthInterval time.Duration
	HealthStrikes  int
	// CallTimeout bounds one worker's answer to one shard (0: none):
	// a worker that hangs — accepts the dispatch but never answers —
	// times out and its shard re-dispatches like a death would.
	CallTimeout time.Duration
	// HTTPClient overrides the transport for worker calls.
	HTTPClient *http.Client
}

// WorkerStats is one worker's row of the coordinator's /statsz
// extension.
type WorkerStats struct {
	URL          string `json:"url"`
	Alive        bool   `json:"alive"`
	Dispatched   int64  `json:"dispatched"`
	Redispatched int64  `json:"redispatched"`
	Failures     int64  `json:"failures"`
}

// Stats is the coordinator's observable state: fleet membership and
// the dispatch/re-dispatch counters that make failure handling
// visible. InlineRuns counts shards no worker answered, left to the
// coordinator's own pass.
type Stats struct {
	Workers      []WorkerStats `json:"workers"`
	Alive        int           `json:"alive"`
	Gathers      int64         `json:"gathers"`
	Shards       int64         `json:"shards_dispatched"`
	Redispatches int64         `json:"redispatches"`
	InlineRuns   int64         `json:"inline_runs"`
	Conflicts    int64         `json:"record_conflicts"`
	Records      int64         `json:"records_gathered"`
}

// Coordinator fans exploration requests out over a fleet of worker
// daemons and merges their partial results. It guarantees nothing by
// itself about output bytes — it only returns records. The serving
// layer gathers when a coordinator pass first misses its store,
// ingests the records there, and lets that pass re-rank locally,
// which is where byte-identity comes from (a record the cluster
// failed to produce is simply measured by the pass, deterministically).
type Coordinator struct {
	cfg     Config
	members *membership

	mu sync.Mutex
	st Stats // counters only; Workers/Alive filled on snapshot
}

// New builds a coordinator; workers join via Join (HTTP) or are
// seeded programmatically.
func New(cfg Config) *Coordinator {
	return &Coordinator{cfg: cfg, members: newMembership(cfg.HealthStrikes)}
}

// Join registers (or resurrects) a worker by base URL; idempotent.
// Reports whether the worker is new.
func (c *Coordinator) Join(url string) bool { return c.members.join(url) }

// Stats snapshots the coordinator's counters and membership.
func (c *Coordinator) Stats() *Stats {
	c.mu.Lock()
	st := c.st
	c.mu.Unlock()
	st.Workers, st.Alive = c.members.snapshot()
	return &st
}

func (c *Coordinator) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.st)
	c.mu.Unlock()
}

// retry returns the per-worker call policy.
func (c *Coordinator) retry() *cli.RetryPolicy {
	if c.cfg.Retry != nil {
		return c.cfg.Retry
	}
	return cli.DefaultRetry
}

// split partitions the request into disjoint shard sub-requests
// covering the whole space — the same contiguous order-preserving
// slices `flexos-explore -shard i/n` explores — and returns the
// request's placement offset r: shard i goes to live worker (r+i) mod
// n. Sub-requests drop the presentation concerns (stream, verbose,
// pareto) and ask for the partial-result codec instead; a pareto
// request fans out as exhaustive shards because its re-rank measures
// the full space. A request that already names a shard is routed
// whole — shard slices do not nest.
func (c *Coordinator) split(req cli.Request) (subs []cli.Request, r int) {
	req.Normalize()
	sub := req
	sub.Stream = false
	sub.Verbose = false
	sub.IncludeRecords = true
	sub.Workers = 0
	sub.TimeoutMs = 0
	if sub.Pareto {
		sub.Pareto = false
		sub.Exhaustive = true
	}
	r = placement(sub)
	if req.Shard != "" {
		return []cli.Request{sub}, r
	}
	fanout := c.cfg.Fanout
	if fanout <= 0 {
		fanout = len(c.members.live())
	}
	if fanout <= 1 {
		return []cli.Request{sub}, r
	}
	subs = make([]cli.Request, fanout)
	for i := range subs {
		subs[i] = sub
		subs[i].Shard = fmt.Sprintf("%d/%d", i, fanout)
	}
	return subs, r
}

// placement hashes the sub-request template's canonical encoding
// (FNV-1a, then splitmix64's finalizer so nearby encodings scatter)
// into a non-negative offset. It builds no query: routing needs only
// a stable number per request, not the request's canonical key. A
// request that already names a shard hashes with it, so the slices of
// a split made by the client still scatter over the fleet.
func placement(tmpl cli.Request) int {
	h := fnv.New64a()
	h.Write(tmpl.Encode())
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x >> 33) // 31 bits: r+i cannot overflow
}

// Gather answers one request with the union of its shards' partial
// results: split, place shard i on live worker (r+i) mod n, re-dispatch
// on failure (bounded), leave a shard no worker can answer to the
// caller's own pass, and merge with conflict detection. The returned
// records may under-cover the space (a lost shard, a conflict) — never
// mis-cover it: a conflicting key is dropped so the local re-rank
// re-measures it.
//
// The only error Gather returns is the context's: every other
// failure degrades to fewer records, because the caller's local
// re-rank can always measure what is missing.
func (c *Coordinator) Gather(ctx context.Context, req cli.Request) ([]cli.Record, error) {
	subs, r := c.split(req)
	c.count(func(s *Stats) { s.Gathers++; s.Shards += int64(len(subs)) })

	results := make([][]cli.Record, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.dispatch(ctx, subs[i], r+i)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge in shard order with conflict detection: the same key from
	// two shards (canonical twins across slices, or a re-dispatched
	// shard answered twice) must carry identical metrics; a
	// disagreement drops the key entirely — the disagreeing nodes
	// cannot both be trusted, and the local re-rank re-measures it.
	total := 0
	for _, recs := range results {
		total += len(recs)
	}
	merged := make(map[string]flexos.Metrics, total)
	dropped := make(map[string]struct{})
	order := make([]string, 0, total)
	for _, recs := range results {
		for _, rec := range recs {
			if _, bad := dropped[rec.Key]; bad {
				continue
			}
			prev, dup := merged[rec.Key]
			if !dup {
				merged[rec.Key] = rec.Metrics
				order = append(order, rec.Key)
				continue
			}
			if prev != rec.Metrics {
				delete(merged, rec.Key)
				dropped[rec.Key] = struct{}{}
				c.count(func(s *Stats) { s.Conflicts++ })
			}
		}
	}
	out := make([]cli.Record, 0, len(merged))
	for _, key := range order {
		if m, ok := merged[key]; ok {
			out = append(out, cli.Record{Key: key, Metrics: m})
		}
	}
	c.count(func(s *Stats) { s.Records += int64(len(out)) })
	return out, nil
}

// dispatch runs one shard sub-request: on the live worker at its slot
// first, then — on failure — on the live workers after the one that
// failed (bounded by maxRedispatch). A worker that fails a call is
// struck immediately, so the rest of the gather routes around it
// without waiting for the health loop. A shard no worker answers
// returns nil and counts as an inline run: it is left to the
// coordinator's own pass, which measures whatever is missing.
func (c *Coordinator) dispatch(ctx context.Context, sub cli.Request, slot int) []cli.Record {
	tried := make(map[string]struct{})
	url := ""
	for hop := 0; hop <= maxRedispatch; hop++ {
		if url = c.route(slot, url, tried); url == "" {
			break
		}
		tried[url] = struct{}{}
		c.members.noteDispatch(url, hop > 0)
		if hop > 0 {
			c.count(func(s *Stats) { s.Redispatches++ })
		}
		recs, err := c.call(ctx, url, sub)
		if err == nil {
			return recs
		}
		if ctx.Err() != nil {
			return nil
		}
		c.members.strike(url)
	}
	c.count(func(s *Stats) { s.InlineRuns++ })
	return nil
}

// route picks a shard's next worker from the live list, re-read on
// every hop so a worker struck mid-gather drops out at once: the worker
// at index slot mod n on the first hop, and after a failure the first
// live worker sorted after the one that failed (wrapping), skipping
// every worker already tried. Returns "" when none is left.
func (c *Coordinator) route(slot int, failed string, tried map[string]struct{}) string {
	live := c.members.live()
	if len(live) == 0 {
		return ""
	}
	start := slot % len(live)
	if failed != "" {
		start = sort.SearchStrings(live, failed)
	}
	for j := range live {
		url := live[(start+j)%len(live)]
		if _, done := tried[url]; !done {
			return url
		}
	}
	return ""
}

// call runs one sub-request against one worker and returns its
// partial-result records.
func (c *Coordinator) call(ctx context.Context, url string, sub cli.Request) ([]cli.Record, error) {
	if c.cfg.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
	}
	client := cli.Client{BaseURL: url, HTTPClient: c.cfg.HTTPClient, Retry: c.retry()}
	resp, err := client.Explore(ctx, sub)
	if err != nil {
		// A pre-cluster worker binary rejects include_records with a
		// 400 (strict decoding), so a mixed-version fleet fails loudly
		// here and re-dispatches — never silently drops records.
		return nil, err
	}
	return resp.Records, nil
}
