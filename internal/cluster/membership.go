package cluster

import (
	"context"
	"sort"
	"sync"
	"time"

	"flexos/internal/cli"
)

// member is one registered worker and its dispatch bookkeeping.
type member struct {
	url          string
	alive        bool
	strikes      int // consecutive failed probes/dispatches
	dispatched   int64
	redispatched int64
	failures     int64
}

// membership is the coordinator's worker registry and failure
// detector: workers join (and re-join, idempotently) over HTTP, a
// background loop probes /healthz, and dispatch failures strike a
// worker immediately so one dead node does not eat a timeout per
// shard. A dead member stays registered — a passing probe or a fresh
// join resurrects it.
type membership struct {
	mu      sync.Mutex
	members map[string]*member
	strikes int // consecutive failures before a member is dead
}

func newMembership(strikes int) *membership {
	if strikes <= 0 {
		strikes = 2
	}
	return &membership{members: make(map[string]*member), strikes: strikes}
}

// join registers (or resurrects) a worker. Reports whether the URL is
// new to the registry.
func (ms *membership) join(url string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok {
		m = &member{url: url}
		ms.members[url] = m
	}
	if !m.alive {
		m.alive = true
		m.strikes = 0
	}
	return !ok
}

// live returns the URLs of the live workers, sorted: the list shards
// are placed on by index.
func (ms *membership) live() []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]string, 0, len(ms.members))
	for url, m := range ms.members {
		if m.alive {
			out = append(out, url)
		}
	}
	sort.Strings(out)
	return out
}

// strike records a failed probe or dispatch against the worker; after
// the configured consecutive count it leaves the live set.
func (ms *membership) strike(url string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok {
		return
	}
	m.failures++
	m.strikes++
	if m.strikes >= ms.strikes {
		m.alive = false
	}
}

// clear records a passing probe, resurrecting a dead worker.
func (ms *membership) clear(url string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[url]
	if !ok {
		return
	}
	m.strikes = 0
	m.alive = true
}

// noteDispatch counts a shard routed to the worker; redispatched marks
// it as a re-route after another worker failed.
func (ms *membership) noteDispatch(url string, redispatched bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if m, ok := ms.members[url]; ok {
		if redispatched {
			m.redispatched++
		} else {
			m.dispatched++
		}
	}
}

// snapshot renders the per-worker stats, sorted by URL.
func (ms *membership) snapshot() (workers []WorkerStats, alive int) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	workers = make([]WorkerStats, 0, len(ms.members))
	for _, m := range ms.members {
		if m.alive {
			alive++
		}
		workers = append(workers, WorkerStats{
			URL: m.url, Alive: m.alive,
			Dispatched: m.dispatched, Redispatched: m.redispatched,
			Failures: m.failures,
		})
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].URL < workers[j].URL })
	return workers, alive
}

// probeAll health-checks every registered member once, concurrently,
// through the workers' existing /healthz endpoint. Probes are
// single-shot by design (see cli.Client.Healthz): the strike counter
// is the debouncer, not hidden retries.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	workers, _ := c.members.snapshot()
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, healthTimeout)
			defer cancel()
			client := cli.Client{BaseURL: w.URL, HTTPClient: c.cfg.HTTPClient}
			if err := client.Healthz(pctx); err != nil {
				c.members.strike(w.URL)
			} else {
				c.members.clear(w.URL)
			}
		}()
	}
	wg.Wait()
}

// StartHealth runs the failure detector until ctx ends: every
// HealthInterval each member is probed, accumulating strikes toward
// death and resurrecting on recovery.
func (c *Coordinator) StartHealth(ctx context.Context) {
	interval := c.cfg.HealthInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.probeAll(ctx)
			}
		}
	}()
}

// Announce registers self with the coordinator, retrying transient
// failures, and keeps re-announcing every interval until ctx ends —
// the heartbeat that re-registers a worker after a coordinator
// restart (join is idempotent) and resurrects it after it was struck
// dead. onErr, when non-nil, observes failed announcements.
func Announce(ctx context.Context, coordinator, self string, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	client := &cli.Client{BaseURL: coordinator, Retry: cli.DefaultRetry}
	announce := func() {
		if err := client.Join(ctx, self); err != nil && onErr != nil && ctx.Err() == nil {
			onErr(err)
		}
	}
	announce()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			announce()
		}
	}
}
