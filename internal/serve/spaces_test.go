package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"flexos"
	"flexos/internal/cli"
)

// statsz reads the daemon's /statsz document over HTTP.
func statsz(t *testing.T, client *cli.Client) Stats {
	t.Helper()
	res, err := client.HTTPClient.Get(client.BaseURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeSpaceCacheColdEqualsWarm: through the daemon, complete and
// streamed responses are byte-identical to the oracle whether the
// request's space was just built or came from the space cache, at one
// worker and at eight; /statsz counts the miss and the hits.
func TestServeSpaceCacheColdEqualsWarm(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 4})
	ctx := context.Background()
	reqs := []cli.Request{
		{Scenario: "redis-get90", Ops: 24},
		{Scenario: "redis-get90", Ops: 24, Attack: "combined", Profile: "riscv", Budgets: []string{"survival>=0.5"}},
		{App: "cross", Requests: 24, Shard: "2/3"},
	}
	for _, req := range reqs {
		for _, workers := range []int{1, 8} {
			req.Workers = workers
			want := oracle(t, req, nil)
			cli.ResetSpaceCache()
			for pass := 0; pass < 2; pass++ {
				resp, err := client.Explore(ctx, req)
				if err != nil {
					t.Fatalf("%+v: %v", req, err)
				}
				var lines []string
				sresp, err := client.ExploreStream(ctx, req, func(l string) { lines = append(lines, l) })
				if err != nil {
					t.Fatalf("%+v stream: %v", req, err)
				}
				if resp.Report != want.report || sresp.Report != want.report || !reflect.DeepEqual(lines, want.lines) {
					t.Fatalf("%+v pass %d: served bytes differ from the oracle", req, pass)
				}
			}
			if sc := statsz(t, client).SpaceCache; sc.Misses != 1 || sc.Hits != 3 || sc.Entries != 1 {
				t.Fatalf("%+v: /statsz space_cache %+v, want one miss then three hits", req, sc)
			}
		}
	}
}

// TestServeSpaceCacheStaysAtCap sends the daemon one request for every
// space the cache can hold — each quadruple × attack × profile × ASLR
// pin — as empty shards, so nothing is measured but every space is
// built. /statsz must show the cache at its cap, with every space past
// the cap evicted; and the space requested first (a cross-application
// shard), evicted by then, must serve the same bytes when it is built
// again.
func TestServeSpaceCacheStaysAtCap(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	cli.ResetSpaceCache()
	// The probe's space is one the loop below never names.
	probe := cli.Request{App: "cross", Requests: 16, Budgets: []string{"300000"}, Shard: "1/8"}
	first, err := client.Explore(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}

	seen := map[[4]string]bool{}
	for _, sc := range flexos.Scenarios() {
		quad, ok := sc.Quad()
		if !ok || seen[quad] {
			continue // one scenario per quadruple: the others share its spaces
		}
		seen[quad] = true
		for _, attack := range []string{"", "combined"} {
			for _, profile := range []string{"", "riscv"} {
				for _, aslr := range []string{"", "off", "16", "16+leak"} {
					req := cli.Request{Scenario: sc.Name(), Ops: 16, Attack: attack, Profile: profile, ASLR: aslr, Shard: "0/2000"}
					if _, err := client.Explore(ctx, req); err != nil {
						t.Fatalf("%+v: %v", req, err)
					}
					if sc := statsz(t, client).SpaceCache; sc.Entries > cli.SpaceCacheCap {
						t.Fatalf("space cache grew past its cap: %+v", sc)
					}
				}
			}
		}
	}
	sc := statsz(t, client).SpaceCache
	distinct := sc.Misses
	if sc.Entries != cli.SpaceCacheCap || distinct <= cli.SpaceCacheCap || sc.Evictions != distinct-cli.SpaceCacheCap {
		t.Fatalf("space cache after %d distinct spaces: %+v, want %d entries and %d evictions",
			distinct, sc, cli.SpaceCacheCap, distinct-cli.SpaceCacheCap)
	}

	// The exact field names an operator scrapes.
	res, err := client.HTTPClient.Get(client.BaseURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var raw struct {
		SpaceCache map[string]int64 `json:"space_cache"`
	}
	if err := json.NewDecoder(res.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"entries", "hits", "misses", "evictions"} {
		if _, ok := raw.SpaceCache[field]; !ok {
			t.Fatalf("/statsz space_cache lacks %q: %v", field, raw.SpaceCache)
		}
	}

	again, err := client.Explore(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if sc := statsz(t, client).SpaceCache; sc.Misses != distinct+1 {
		t.Fatalf("the first space was not evicted: %+v", sc)
	}
	if again.Report != first.Report {
		t.Fatalf("a rebuilt space serves different bytes:\n%s\nfirst:\n%s", again.Report, first.Report)
	}
}
