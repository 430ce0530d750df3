package cli

import (
	"testing"

	"flexos"
)

// TestCanonicalKeyBytesPinned pins the exact canonical key strings of a
// spread of requests. Serve coalescing compares these strings and
// every response carries one as its key, so a changed byte would
// silently change which requests share a flight: a change here is a
// wire-format change, never a refactor.
func TestCanonicalKeyBytesPinned(t *testing.T) {
	const (
		redis = "space=d5f22da022af58f1;metric=throughput;"
		floor = "constraints=throughput>=500000;"
		plain = redis + floor + "prune=true;shard=;budget=0;seed=0;delta=false"
		two   = redis + "constraints=p99<=3,throughput>=400000;prune=true;shard=;budget=0;seed=0;delta=false"
	)
	fig6 := func() *flexos.Query { return flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())) }
	for _, tc := range []struct {
		name string
		req  Request
		q    *flexos.Query // keyed instead of req when non-nil
		want string
	}{
		{name: "plain fig6 scenario", req: Request{Scenario: "redis-get90"}, want: plain},
		{name: "workers and verbose", req: Request{Scenario: "redis-get90", Workers: 8, Verbose: true}, want: plain},
		{name: "plain app space", req: Request{App: "nginx", Requests: 100},
			want: "space=17105c96af43eea7;metric=throughput;" + floor + "prune=true;shard=;budget=0;seed=0;delta=false"},
		{name: "two constraints", req: Request{Scenario: "redis-get90", Budgets: []string{"throughput>=400000", "p99<=3"}}, want: two},
		{name: "two constraints reversed", req: Request{Scenario: "redis-get90", Budgets: []string{"p99<=3", "throughput>=400000"}}, want: two},
		{name: "budget with seed", req: Request{Scenario: "redis-get90", MeasureBudget: 20, Seed: 7},
			want: redis + floor + "prune=true;shard=;budget=20;seed=7;delta=false"},
		{name: "seed without budget", req: Request{Scenario: "redis-get90", Seed: 9}, want: plain},
		{name: "delta with prune", req: Request{Scenario: "redis-get90", DeltaOnly: true},
			want: redis + floor + "prune=false;shard=;budget=0;seed=0;delta=true"},
		{name: "shard", req: Request{Scenario: "redis-get90", Shard: "1/4"},
			want: redis + floor + "prune=true;shard=1/4;budget=0;seed=0;delta=false"},
		{name: "attack profile aslr", req: Request{Scenario: "redis-get90", Attack: "combined", Profile: "riscv", ASLR: "16+leak"},
			want: "space=ca2453277253182b;metric=throughput;" + floor + "prune=true;shard=;budget=0;seed=0;delta=false"},
		// The CLI always names a ranking metric; a bare Query resolves
		// it from the first constraint, so constraint order moves it.
		{name: "query metric from first constraint",
			q:    fig6().Ceiling(flexos.MetricP99, 3).Floor(flexos.MetricThroughput, 400000).Prune(true),
			want: "space=3efe766426f26a69;metric=p99;constraints=p99<=3,throughput>=400000;prune=true;shard=;budget=0;seed=0;delta=false"},
		{name: "query negative budget",
			q:    fig6().Namespace("ns").MeasureBudget(-5).Seed(3),
			want: "space=fd9a074c872a6d32;metric=throughput;constraints=;prune=false;shard=;budget=0;seed=0;delta=false"},
	} {
		q := tc.q
		if q == nil {
			var err error
			if q, _, err = tc.req.Build(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		got := q.CanonicalKey()
		if got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
