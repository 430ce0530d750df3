package cluster

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"flexos/internal/cli"
)

var placementRequests = []cli.Request{
	{Scenario: "redis-get90"},
	{Scenario: "nginx-keep75", Metric: "p99", Budgets: []string{"3"}},
	{App: "redis", Budgets: []string{"600000"}},
	{Scenario: "redis-get50", Pareto: true},
}

// fleet is a coordinator over n workers joined in the given order; it
// needs no HTTP, since placement reads only the membership.
func fleet(fanout int, urls ...string) *Coordinator {
	c := New(Config{Fanout: fanout, HealthStrikes: 1})
	for _, u := range urls {
		c.Join(u)
	}
	return c
}

// place returns the first-hop worker of each shard of one gather.
func place(c *Coordinator, req cli.Request) []string {
	subs, r := c.split(req)
	out := make([]string, len(subs))
	for i := range subs {
		out[i] = c.route(r+i, "", nil)
	}
	return out
}

func TestPlacement(t *testing.T) {
	for n := 1; n <= 4; n++ {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = fmt.Sprintf("http://w%d:%d", i, 8071+i)
		}
		for fanout := 1; fanout <= n; fanout++ {
			for _, req := range placementRequests {
				name := fmt.Sprintf("n=%d/fanout=%d/%s%s", n, fanout, req.Scenario, req.App)
				c := fleet(fanout, urls...)
				got := place(c, req)

				seen := make(map[string]int)
				for _, u := range got {
					seen[u]++
				}
				if len(got) != fanout || len(seen) != fanout || seen[""] != 0 {
					t.Fatalf("%s: shards placed on %v, want %d distinct workers", name, got, fanout)
				}
				if fanout == n {
					for _, u := range urls {
						if seen[u] != 1 {
							t.Fatalf("%s: worker %s got %d shards, want exactly 1: %v", name, u, seen[u], got)
						}
					}
				}
				if again := place(c, req); !slices.Equal(again, got) {
					t.Fatalf("%s: repeated request moved shards: %v then %v", name, got, again)
				}
				reversed := slices.Clone(urls)
				slices.Reverse(reversed)
				if other := place(fleet(fanout, reversed...), req); !slices.Equal(other, got) {
					t.Fatalf("%s: join order changed placement: %v vs %v", name, got, other)
				}

				// Strike the first shard's worker dead: no shard is
				// placed on it any more, and its re-dispatch goes to
				// the next live worker in sorted order.
				victim := got[0]
				c.members.strike(victim)
				if after := place(c, req); slices.Contains(after, victim) {
					t.Fatalf("%s: dead worker %s still placed: %v", name, victim, after)
				}
				_, r := c.split(req)
				next := c.route(r, victim, map[string]struct{}{victim: {}})
				if want := successor(urls, victim); next != want {
					t.Fatalf("%s: shard of dead %s re-routed to %q, want the next live worker %q", name, victim, next, want)
				}
			}
		}
	}
}

// successor is the worker sorted after url in the fleet, wrapping, or
// "" when url is the only one.
func successor(urls []string, url string) string {
	sorted := slices.Sorted(slices.Values(urls))
	i := slices.Index(sorted, url)
	if len(sorted) == 1 {
		return ""
	}
	return sorted[(i+1)%len(sorted)]
}

// TestPlacementSpreadsSmallFanouts: with a fan-out of one over three
// workers, different requests still use the whole fleet.
func TestPlacementSpreadsSmallFanouts(t *testing.T) {
	c := fleet(1, "http://a:1", "http://b:1", "http://c:1")
	used := make(map[string]bool)
	for ops := 10; ops < 40; ops++ {
		used[place(c, cli.Request{Scenario: "redis-get90", Ops: ops})[0]] = true
	}
	if len(used) != 3 {
		t.Fatalf("30 single-shard requests used workers %v, want all three", used)
	}
}

// TestPlacementFallsBackInline: with every worker dead a shard is left
// to the coordinator's own pass — dispatch returns nothing, counts one
// inline run, and dispatches to no worker.
func TestPlacementFallsBackInline(t *testing.T) {
	c := fleet(2, "http://a:1", "http://b:1")
	c.members.strike("http://a:1")
	c.members.strike("http://b:1")

	subs, r := c.split(cli.Request{Scenario: "redis-get90"})
	if len(subs) != 2 {
		t.Fatalf("configured fan-out 2 split into %d shards", len(subs))
	}
	if got := c.dispatch(context.Background(), subs[0], r); got != nil {
		t.Fatalf("a shard no worker can answer returned %v, want nil", got)
	}
	st := c.Stats()
	if st.InlineRuns != 1 || st.Redispatches != 0 {
		t.Fatalf("inline fallback counters: %+v", st)
	}
	for _, w := range st.Workers {
		if w.Dispatched+w.Redispatched != 0 {
			t.Fatalf("dead worker dispatched to: %+v", st.Workers)
		}
	}
}
