package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"flexos"
	"flexos/internal/cli"
)

// maxRedispatch bounds how many surviving workers a shard is re-routed
// to after its owner fails, before falling back to an inline run on
// the coordinator; healthTimeout bounds one failure-detector probe.
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
// the dispatch/re-dispatch/fallback counters that make failure
// handling visible.
type Stats struct {
	Workers      []WorkerStats `json:"workers"`
	Alive        int           `json:"alive"`
	Gathers      int64         `json:"gathers"`
	Shards       int64         `json:"shards_dispatched"`
	Redispatches int64         `json:"redispatches"`
	InlineRuns   int64         `json:"inline_runs"`
	ShardsLost   int64         `json:"shards_lost"`
	Conflicts    int64         `json:"record_conflicts"`
	Records      int64         `json:"records_gathered"`
}

// Coordinator fans exploration requests out over a fleet of worker
// daemons and merges their partial results. It guarantees nothing by
// itself about output bytes — it only returns records; the serving
// layer replays them into its memo and re-ranks locally, which is
// where byte-identity comes from (a record the cluster failed to
// produce is simply measured locally, deterministically).
type Coordinator struct {
	cfg     Config
	members *membership

	// local runs a sub-request on the coordinator's own engine — the
	// last-resort fallback when every route for a shard failed. The
	// serving layer installs it (SetLocal).
	local func(ctx context.Context, req cli.Request) ([]cli.Record, error)

	mu sync.Mutex
	st Stats // counters only; Workers/Alive filled on snapshot
}

// New builds a coordinator; workers join via Join (HTTP) or are
// seeded programmatically.
func New(cfg Config) *Coordinator {
	return &Coordinator{cfg: cfg, members: newMembership(cfg.HealthStrikes)}
}

// SetLocal installs the inline fallback the serving layer provides.
func (c *Coordinator) SetLocal(fn func(ctx context.Context, req cli.Request) ([]cli.Record, error)) {
	c.local = fn
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
// slices `flexos-explore -shard i/n` explores. Sub-requests drop the
// presentation concerns (stream, verbose, pareto) and ask for the
// partial-result codec instead; a pareto request fans out as
// exhaustive shards because its re-rank measures the full space.
// A request that already names a shard is routed whole — shard
// slices do not nest.
func (c *Coordinator) split(req cli.Request) []cli.Request {
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
	if req.Shard != "" {
		return []cli.Request{sub}
	}
	fanout := c.cfg.Fanout
	if fanout <= 0 {
		fanout = c.members.liveRing().Len()
	}
	if fanout <= 1 {
		return []cli.Request{sub}
	}
	subs := make([]cli.Request, fanout)
	for i := range subs {
		subs[i] = sub
		subs[i].Shard = fmt.Sprintf("%d/%d", i, fanout)
	}
	return subs
}

// Gather answers one request with the union of its shards' partial
// results: split, route each shard to the worker owning its canonical
// key on the hash ring, re-dispatch on failure (bounded), fall back
// inline when no worker can answer, and merge with conflict
// detection. The returned records may under-cover the space (a lost
// shard, a conflict) — never mis-cover it: a conflicting key is
// dropped so the local re-rank re-measures it.
//
// The only error Gather returns is the context's: every other
// failure degrades to fewer records, because the caller's local
// re-rank can always measure what is missing.
func (c *Coordinator) Gather(ctx context.Context, req cli.Request) ([]cli.Record, error) {
	subs := c.split(req)
	c.count(func(s *Stats) { s.Gathers++; s.Shards += int64(len(subs)) })

	results := make([][]cli.Record, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.dispatch(ctx, subs[i])
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
	merged := make(map[string]flexos.Metrics)
	dropped := make(map[string]struct{})
	order := make([]string, 0, len(merged))
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

// dispatch routes one shard sub-request: to the ring owner of its
// canonical key first, then — on failure — along the ring to
// surviving successors (bounded by maxRedispatch), and finally
// inline. A worker that fails a call is struck immediately, so the
// rest of the gather routes around it without waiting for the health
// loop. Returns nil when every route failed; the caller's re-rank
// absorbs the loss.
func (c *Coordinator) dispatch(ctx context.Context, sub cli.Request) []cli.Record {
	key, err := sub.CanonicalKey()
	if err != nil {
		// An unroutable sub-request of a request that built upstream
		// cannot happen; treat it as a lost shard rather than panic.
		c.count(func(s *Stats) { s.ShardsLost++ })
		return nil
	}
	tried := make(map[string]struct{})
	for hop := 0; hop <= maxRedispatch; hop++ {
		url := c.routeAround(key, tried)
		if url == "" {
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
	// No worker could answer: run the shard on the coordinator's own
	// engine. Fresh measurements land in the serving memo either way,
	// so even this path feeds the fleet's store sync.
	c.count(func(s *Stats) { s.InlineRuns++ })
	if c.local == nil {
		c.count(func(s *Stats) { s.ShardsLost++ })
		return nil
	}
	recs, err := c.local(ctx, sub)
	if err != nil {
		c.count(func(s *Stats) { s.ShardsLost++ })
		return nil
	}
	return recs
}

// routeAround returns the first live worker on the key's ring walk
// that has not been tried yet, or "".
func (c *Coordinator) routeAround(key string, tried map[string]struct{}) string {
	for _, url := range c.members.liveRing().Sequence(key) {
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
