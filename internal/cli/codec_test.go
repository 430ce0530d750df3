package cli

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexos"
)

// keyOf is a request's coalescing identity, as a daemon computes it:
// the canonical key of the query the request builds.
func keyOf(r Request) (string, error) {
	q, _, err := r.Build()
	if err != nil {
		return "", err
	}
	return q.CanonicalKey(), nil
}

func TestRequestEncodeDecodeRoundTrip(t *testing.T) {
	reqs := []Request{
		{},
		{App: "redis"},
		{App: "nginx", Requests: 120, Budgets: []string{"400000"}},
		{App: "cross", Shard: "1/3", Workers: 8, Verbose: true},
		{Scenario: "redis-get90", Ops: 100},
		{Scenario: "redis-pipe8", Budgets: []string{"throughput>=200000", "p99<=40"}, Stream: true},
		{Scenario: "nginx-keep75", Metric: "p99", Budgets: []string{"3"}, TimeoutMs: 5000},
		{Scenario: "redis-get50", Pareto: true, Exhaustive: true},
		{Scenario: "redis-get90*3+redis-get50", Ops: 960},
		{Scenario: "nginx-static+nginx-keepalive*2", Stream: true},
	}
	for _, r := range reqs {
		enc := r.Encode()
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", r, err)
		}
		want := r
		want.Normalize()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the request:\n got %+v\nwant %+v", got, want)
		}
		if again := got.Encode(); !bytes.Equal(again, enc) {
			t.Errorf("encode not stable:\n 1st %s\n 2nd %s", enc, again)
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"empty", ""},
		{"not json", "hello"},
		{"array", `[1,2]`},
		{"unknown field", `{"bogus":1}`},
		{"trailing garbage", `{"app":"redis"} {}`},
		{"unknown app", `{"app":"plan9"}`},
		{"unknown scenario", `{"scenario":"nope"}`},
		{"phased unknown phase", `{"scenario":"redis-get90+nope"}`},
		{"phased mixed apps", `{"scenario":"redis-get90+nginx-static"}`},
		{"phased bad weight", `{"scenario":"redis-get90*0"}`},
		{"bad metric", `{"metric":"zzz"}`},
		{"bad budget", `{"budgets":["p99<="]}`},
		{"bad shard syntax", `{"shard":"abc"}`},
		{"shard out of range", `{"shard":"9/4"}`},
		{"pareto needs scenario", `{"app":"redis","pareto":true}`},
		{"metric needs scenario", `{"app":"redis","metric":"p99"}`},
		{"requests cap", `{"app":"redis","requests":2000000}`},
		{"ops cap", `{"scenario":"redis-get90","ops":99999999}`},
		{"budgets cap", `{"budgets":["1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","16","17"]}`},
		{"wrong type", `{"workers":"four"}`},
	} {
		if _, err := DecodeRequest([]byte(tc.body)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// TestCanonicalKeyInvariants pins the coalescing identity: what must
// and must not move the key. Requests that only differ in rendering
// or scheduling knobs (workers, verbose, stream, timeout, budget
// spelling and order, pareto-vs-exhaustive) share one engine pass;
// anything that can change result bytes gets its own.
func TestCanonicalKeyInvariants(t *testing.T) {
	key := func(r Request) string {
		t.Helper()
		k, err := keyOf(r)
		if err != nil {
			t.Fatalf("key(%+v): %v", r, err)
		}
		return k
	}
	base := Request{Scenario: "redis-get90"}
	same := []Request{
		{Scenario: "redis-get90", Workers: 1},
		{Scenario: "redis-get90", Workers: 8},
		{Scenario: "redis-get90", Verbose: true},
		{Scenario: "redis-get90", Stream: true},
		{Scenario: "redis-get90", TimeoutMs: 5000},
		{Scenario: "redis-get90", Budgets: []string{"500000"}},             // the implicit default, spelled out
		{Scenario: "redis-get90", Budgets: []string{"throughput>=500000"}}, // full spelling
		{Scenario: "redis-get90", Seed: 9},                                 // without a budget the seed is dead weight
	}
	// Phase-schedule spellings canonicalize before keying: explicit
	// "*1" weights and whitespace never split a flight.
	if key(Request{Scenario: "redis-get90*2+redis-get50"}) !=
		key(Request{Scenario: " redis-get90 * 2 + redis-get50 * 1 "}) {
		t.Error("phased spelling changed the key; schedules canonicalize before coalescing")
	}
	for _, r := range same {
		if key(r) != key(base) {
			t.Errorf("%+v: key differs from base; these must coalesce", r)
		}
	}
	if key(Request{Scenario: "redis-get90", Budgets: []string{"p99<=3", "throughput>=100000"}}) !=
		key(Request{Scenario: "redis-get90", Budgets: []string{"throughput>=100000", "p99<=3"}}) {
		t.Error("constraint order changed the key; the conjunction is order-free")
	}
	if key(Request{Scenario: "redis-get90", Pareto: true}) != key(Request{Scenario: "redis-get90", Exhaustive: true}) {
		t.Error("pareto and exhaustive both disable pruning and nothing else; they must share a pass")
	}
	distinct := []Request{
		{Scenario: "redis-get100"},                            // different workload
		{Scenario: "redis-get90", Ops: 100},                   // different op count (memo namespace)
		{Scenario: "redis-get90", Budgets: []string{"12345"}}, // different bound
		{Scenario: "redis-get90", Metric: "p99", Budgets: []string{"p99<=3"}},
		{Scenario: "redis-get90", Exhaustive: true}, // pruning changes decided sets
		{Scenario: "redis-get90", Shard: "0/2"},
		{Scenario: "redis-get90", MeasureBudget: 500},          // a budgeted run decides less
		{Scenario: "redis-get90", MeasureBudget: 200},          // ... and a different cap, differently
		{Scenario: "redis-get90", MeasureBudget: 500, Seed: 1}, // the seed picks the sample
		{Scenario: "redis-get90", MeasureBudget: 500, Seed: 2},
		{Scenario: "redis-get90", DeltaOnly: true}, // a delta run reports only the store-absent slice
		{Scenario: "redis-get90+redis-get50"},      // a schedule is not its first phase
		{Scenario: "redis-get50+redis-get90"},      // ... and a schedule is a timeline, not a set
		{Scenario: "redis-get90*2+redis-get50"},    // ... and weights scale the phases
		{App: "redis"},
	}
	seen := map[string]string{key(base): "base"}
	for i, r := range distinct {
		k := key(r)
		if prev, dup := seen[k]; dup {
			t.Errorf("%+v collides with %s; these must not coalesce", r, prev)
		}
		seen[k] = fmt.Sprintf("distinct[%d]", i)
	}
	// Scheduling knobs still coalesce on a budgeted request: the
	// (budget, seed) pair pins result bytes at every worker count.
	if key(Request{Scenario: "redis-get90", MeasureBudget: 500, Seed: 1}) !=
		key(Request{Scenario: "redis-get90", MeasureBudget: 500, Seed: 1, Workers: 8, Verbose: true}) {
		t.Error("workers/verbose split a budgeted flight; byte-identity across worker counts makes them coalescible")
	}
}

// TestAttackAxisKeyInvariants extends the coalescing identity to the
// attack axes: requests differing only in attack scenario, machine
// profile or pinned ASLR level describe different spaces or scorings
// and must never coalesce, while presentation and scheduling knobs —
// and alias spellings of the same axis value — still do.
func TestAttackAxisKeyInvariants(t *testing.T) {
	key := func(r Request) string {
		t.Helper()
		k, err := keyOf(r)
		if err != nil {
			t.Fatalf("key(%+v): %v", r, err)
		}
		return k
	}
	base := Request{Scenario: "redis-get90", Attack: "rop-chain"}
	same := []Request{
		{Scenario: "redis-get90", Attack: " ROP-Chain "},           // scenario names canonicalize
		{Scenario: "redis-get90", Attack: "rop-chain", Workers: 8}, // scheduling knob
		{Scenario: "redis-get90", Attack: "rop-chain", Verbose: true},
		{Scenario: "redis-get90", Attack: "rop-chain", Stream: true},
		{Scenario: "redis-get90", Attack: "rop-chain", Profile: "x86"},  // the default profile is absence
		{Scenario: "redis-get90", Attack: "rop-chain", Profile: "xeon"}, // ... under any alias
	}
	for _, r := range same {
		if key(r) != key(base) {
			t.Errorf("%+v: key differs from base; these must coalesce", r)
		}
	}
	if key(Request{Scenario: "redis-get90", Attack: "combined", Profile: "risc-v"}) !=
		key(Request{Scenario: "redis-get90", Attack: "combined", Profile: "rv64"}) {
		t.Error("profile aliases split a flight; they canonicalize before keying")
	}
	if key(Request{Scenario: "redis-get90", Attack: "combined", ASLR: "none"}) !=
		key(Request{Scenario: "redis-get90", Attack: "combined", ASLR: "off"}) {
		t.Error("aslr aliases split a flight; they canonicalize before keying")
	}
	distinct := []Request{
		{Scenario: "redis-get90"},                       // the plain performance run
		{Scenario: "redis-get90", Attack: "addr-probe"}, // a different attacker
		{Scenario: "redis-get90", Attack: "comp-leak"},
		{Scenario: "redis-get90", Attack: "combined"},
		{Scenario: "redis-get90", Attack: "rop-chain", Profile: "riscv"}, // a different machine
		{Scenario: "redis-get90", Attack: "rop-chain", ASLR: "off"},      // pinned off != sweeping the ladder
		{Scenario: "redis-get90", Attack: "rop-chain", ASLR: "16"},       // ... and each pin differently
		{Scenario: "redis-get90", Attack: "rop-chain", ASLR: "16+leak"},
		{Scenario: "redis-get90", Attack: "combined", Profile: "riscv", ASLR: "16+leak"},
		{Scenario: "redis-get90", Profile: "riscv"},             // profile-stamped, unattacked run
		{Scenario: "redis-get90", Profile: "riscv", ASLR: "16"}, // stamped ASLR joins the key too
		{Scenario: "redis-get50", Attack: "rop-chain"},          // the workload still matters
	}
	seen := map[string]string{key(base): "base"}
	for i, r := range distinct {
		k := key(r)
		if prev, dup := seen[k]; dup {
			t.Errorf("%+v collides with %s; these must not coalesce", r, prev)
		}
		seen[k] = fmt.Sprintf("distinct[%d]", i)
	}
	// Survival metrics and constraints are attack-only: without an
	// attack scenario there is no survival score to rank or bound.
	for _, r := range []Request{
		{Scenario: "redis-get90", Metric: "survival"},
		{Scenario: "redis-get90", Budgets: []string{"survival>=0.5"}},
	} {
		if _, err := keyOf(r); err == nil {
			t.Errorf("%+v: survival without -attack must be rejected", r)
		}
	}
	if _, err := keyOf(Request{Scenario: "redis-get90", Attack: "combined",
		Metric: "survival", Budgets: []string{"survival>=0.5"}}); err != nil {
		t.Errorf("survival metric under an attack scenario must build: %v", err)
	}
}

// TestQueryRequestRoundTrip closes the loop between the builder and
// the wire form: a Request built into a Query yields the same
// canonical key after an encode/decode round trip, so a daemon and a
// local CLI computing keys independently always agree.
func TestQueryRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{App: "cross", Shard: "2/4", Budgets: []string{"300000"}},
		{Scenario: "nginx-static", Exhaustive: true},
		{Scenario: "redis-pipe8", Budgets: []string{"mem<=400000", "throughput>=100000"}},
	}
	for _, r := range reqs {
		q, _, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := DecodeRequest(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		q2, _, err := rt.Build()
		if err != nil {
			t.Fatal(err)
		}
		if q.CanonicalKey() != q2.CanonicalKey() {
			t.Errorf("%+v: canonical key unstable across the wire", r)
		}
		if q.SpaceHash() != q2.SpaceHash() {
			t.Errorf("%+v: space hash unstable across the wire", r)
		}
	}
}

// configDerivedSeeds derives one request per shipped configs/*.yaml:
// the file's application prefix selects the space, its flavor the
// request shape — the corpus the fuzzer mutates from.
func configDerivedSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	files, err := filepath.Glob("../../configs/*.yaml")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no config seeds found: %v", err)
	}
	var seeds [][]byte
	for _, f := range files {
		app, _, _ := strings.Cut(filepath.Base(f), "-")
		var r Request
		switch app {
		case "redis":
			r = Request{App: "redis", Budgets: []string{"500000"}}
		case "nginx":
			r = Request{App: "nginx", Budgets: []string{"400000"}, Verbose: true}
		case "iperf":
			r = Request{Scenario: "iperf-stream4", Budgets: []string{"throughput>=1"}}
		case "sqlite":
			// SQLite scenarios are bench-only (no Fig6 space): seed the
			// nearest servable shape, a memory-budgeted scenario run.
			r = Request{Scenario: "redis-get90", Metric: "mem", Budgets: []string{"mem<=400000"}}
		default:
			r = Request{}
		}
		seeds = append(seeds, r.Encode())
	}
	return seeds
}

// FuzzDecodeRequest asserts the codec's safety contract: arbitrary
// bodies never panic, anything that decodes re-encodes canonically,
// and decode→encode→decode is a fixpoint.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range configDerivedSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"scenario":"redis-pipe8","budgets":["throughput>=200000","p99<=40"],"stream":true,"workers":8}`))
	f.Add([]byte(`{"app":"cross","shard":"1/3","timeout_ms":1000}`))
	f.Add([]byte(`{"scenario":"redis-get90*3+redis-get50","ops":960}`))
	f.Add([]byte(`{"app":"redis","requests":-5,"metric":""}`))
	f.Add([]byte(`[{"app":"redis"}]`))
	f.Add([]byte(`{"budgets":[{}]}`))
	f.Add([]byte(`{"scenario":"redis-get90","attack":"combined","profile":"riscv","aslr":"16+leak"}`))
	f.Add([]byte(`{"scenario":"redis-get90","attack":"ROP-Chain","budgets":["survival>=0.5"]}`))
	f.Add([]byte(`{"scenario":"redis-get90","profile":"xeon","aslr":"off"}`))
	f.Add([]byte(`{"attack":"rop-chain"}`))
	f.Add([]byte(`{"scenario":"redis-get90","aslr":"99+leak"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequest(data)
		if err != nil {
			return
		}
		enc := r.Encode()
		r2, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v\ninput: %q\nencoded: %s", err, data, enc)
		}
		if again := r2.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("encode not a fixpoint:\n 1st %s\n 2nd %s", enc, again)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", r2, r)
		}
		// The coalescing key must be computable for anything that
		// decodes, and stable across the round trip.
		k1, err1 := keyOf(r)
		k2, err2 := keyOf(r2)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("canonical key unstable: %q (%v) vs %q (%v)", k1, err1, k2, err2)
		}
	})
}

// TestStreamLineMatchesExploreOutput pins the shared line renderer to
// the historical flexos-explore -stream format.
func TestStreamLineMatchesExploreOutput(t *testing.T) {
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	line := StreamLine(false, cfgs[0], flexos.Metrics{Throughput: 123456})
	if !strings.HasPrefix(line, "measured ") || !strings.HasSuffix(line, "k req/s") {
		t.Errorf("scalar line format drifted: %q", line)
	}
	vec := flexos.Metrics{Throughput: 1000, P50us: 1, P99us: 2, MaxUs: 3, PeakMemBytes: 4, BootCycles: 5}
	line = StreamLine(true, cfgs[0], vec)
	if !strings.Contains(line, vec.String()) {
		t.Errorf("scenario line %q does not embed the vector %q", line, vec)
	}
}
