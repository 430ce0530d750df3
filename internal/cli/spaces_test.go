package cli

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"flexos"
	"flexos/internal/explore/exploretest"
)

// spaceShapes returns one request per distinct space the cache can
// hold: one scenario per quadruple × no attack or an attack × both
// profiles × no pin and every ASLR pin, plus the cross-application
// app space.
func spaceShapes(t *testing.T) []Request {
	t.Helper()
	seen := map[[4]string]bool{}
	var out []Request
	for _, sc := range flexos.Scenarios() {
		quad, ok := sc.Quad()
		if !ok || seen[quad] {
			continue
		}
		seen[quad] = true
		for _, attack := range []string{"", "combined"} {
			for _, profile := range []string{"", "riscv"} {
				for _, aslr := range []string{"", "off", "16", "16+leak"} {
					out = append(out, Request{Scenario: sc.Name(), Attack: attack, Profile: profile, ASLR: aslr})
				}
			}
		}
	}
	return append(out, Request{App: "cross"})
}

// freshSpace enumerates the request's space without the cache.
func freshSpace(t *testing.T, r Request) []*flexos.ExploreConfig {
	t.Helper()
	r.Normalize()
	if r.App == "cross" {
		return flexos.CrossAppSpace(nil, flexos.RedisComponents(), flexos.NginxComponents())
	}
	sc, _ := flexos.ScenarioByName(r.Scenario)
	quad, _ := sc.Quad()
	spec := flexos.AttackSpec{Scenario: r.Attack, Profile: r.Profile}
	if r.ASLR != "" {
		a, err := flexos.ParseASLR(r.ASLR)
		if err != nil {
			t.Fatal(err)
		}
		spec.ASLR, spec.PinASLR = a, true
	}
	if r.Attack != "" {
		return flexos.AttackSpace(flexos.Fig6Space(quad), spec)
	}
	return flexos.StampSpace(flexos.Fig6Space(quad), spec.Profile, spec.ASLR, spec.PinASLR)
}

// TestSpaceCacheMatchesFreshEnumeration: for every cacheable space,
// the Space a request builds — on the miss and on the hit — has the
// size and the hash (every key, in order) of a fresh enumeration.
func TestSpaceCacheMatchesFreshEnumeration(t *testing.T) {
	ResetSpaceCache()
	for _, r := range spaceShapes(t) {
		for pass := 0; pass < 2; pass++ {
			q, _, err := r.Build()
			if err != nil {
				t.Fatalf("%+v: %v", r, err)
			}
			cfgs := freshSpace(t, r)
			if q.SpaceSize() != len(cfgs) {
				t.Fatalf("%+v pass %d: %d configurations, fresh %d", r, pass, q.SpaceSize(), len(cfgs))
			}
			if got, want := q.SpaceHash(), flexos.NewSpace(cfgs).Hash(q.MemoNamespace()); got != want {
				t.Fatalf("%+v pass %d: space hash %s, fresh %s", r, pass, got, want)
			}
		}
	}
	st := SpaceCache()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache statistics did not move: %+v", st)
	}
}

// run builds and streams one request over memo, returning the stream
// lines and the report.
func run(t *testing.T, r Request, memo *flexos.ExploreMemo) (lines []string, report string) {
	t.Helper()
	q, info, err := r.Build()
	if err != nil {
		t.Fatalf("%+v: %v", r, err)
	}
	seq, final := q.Memo(memo).Stream(context.Background())
	for cfg, m := range seq {
		lines = append(lines, StreamLine(info.ScenarioMode, cfg, m))
	}
	res, err := final()
	noFeasible := errors.Is(err, flexos.ErrNoFeasible)
	if err != nil && !noFeasible {
		t.Fatalf("%+v: %v", r, err)
	}
	return lines, RenderReport(info.Title, res, info.Constraints, info.ScenarioMode, r.Pareto, r.Verbose, noFeasible)
}

// TestReportsIdenticalColdAndWarmCache: reports and stream lines are
// byte-identical whether the request's space was just built or came
// from the cache, at one worker and at eight. The memo is shared, so
// only the first run measures; it never changes bytes.
func TestReportsIdenticalColdAndWarmCache(t *testing.T) {
	reqs := []Request{
		{Scenario: "redis-get90", Ops: 24},
		{Scenario: "nginx-keep75", Ops: 24, Metric: "p99", Budgets: []string{"3"}, Verbose: true},
		{Scenario: "redis-get90", Ops: 24, Attack: "combined", Profile: "riscv", Budgets: []string{"survival>=0.5"}},
		{App: "cross", Requests: 24, Budgets: []string{"300000"}},
		{App: "cross", Requests: 24, Shard: "1/3"},
		{Scenario: "redis-get90", Ops: 24, Pareto: true, Exhaustive: true},
	}
	for _, r := range reqs {
		memo := flexos.NewExploreMemo()
		for _, workers := range []int{1, 8} {
			r.Workers = workers
			ResetSpaceCache()
			coldLines, coldReport := run(t, r, memo)
			warmLines, warmReport := run(t, r, memo)
			if st := SpaceCache(); st.Misses != 1 || st.Hits != 1 {
				t.Fatalf("%+v: cache statistics %+v, want one miss then one hit", r, st)
			}
			if warmReport != coldReport {
				t.Fatalf("%+v: warm-cache report differs:\n%s\ncold:\n%s", r, warmReport, coldReport)
			}
			if strings.Join(warmLines, "\n") != strings.Join(coldLines, "\n") {
				t.Fatalf("%+v: warm-cache stream differs (%d vs %d lines)", r, len(warmLines), len(coldLines))
			}
		}
	}
}

// TestSpaceSharedAcrossConcurrentRequests runs eight requests at once
// over one cached Space whose safety order none of them has built yet.
// Under the race detector it checks that the Space is safe to share;
// every request must print the bytes a lone request prints.
func TestSpaceSharedAcrossConcurrentRequests(t *testing.T) {
	r := Request{Scenario: "redis-get90", Ops: 16, Budgets: []string{"throughput>=400000"}, Workers: 2}
	memo := flexos.NewExploreMemo()
	wantLines, wantReport := run(t, r, memo)
	ResetSpaceCache() // the memo stays warm; the Space and its order go
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(r Request) { // Build normalizes its receiver: each its own copy
			defer wg.Done()
			q, info, err := r.Build()
			if err != nil {
				errs <- err
				return
			}
			var lines []string
			seq, final := q.Memo(memo).Stream(context.Background())
			for cfg, m := range seq {
				lines = append(lines, StreamLine(info.ScenarioMode, cfg, m))
			}
			res, err := final()
			if err != nil {
				errs <- err
				return
			}
			report := RenderReport(info.Title, res, info.Constraints, info.ScenarioMode, false, false, false)
			if report != wantReport || strings.Join(lines, "\n") != strings.Join(wantLines, "\n") {
				errs <- errors.New("a concurrent request printed different bytes")
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := SpaceCache(); st.Misses != 1 || st.Hits != 7 || st.Entries != 1 {
		t.Fatalf("cache statistics %+v, want one miss and seven hits on one entry", st)
	}
}

// fmtStreamLine is StreamLine as it was written with fmt, the
// reference of the strconv rendering.
func fmtStreamLine(scenarioMode bool, label string, m flexos.Metrics) string {
	if scenarioMode {
		s := fmt.Sprintf("%.1fk op/s p50=%.2fµs p99=%.2fµs max=%.2fµs mem=%dB boot=%dcy",
			m.Throughput/1000, m.P50us, m.P99us, m.MaxUs, m.PeakMemBytes, m.BootCycles)
		if m.Survival > 0 {
			s += fmt.Sprintf(" surv=%.6f", m.Survival)
		}
		return fmt.Sprintf("measured %-55s %s", label, s)
	}
	return fmt.Sprintf("measured %-55s %9.1fk req/s", label, m.Throughput/1000)
}

// TestStreamLineMatchesFmt compares both line forms with the fmt
// rendering over every shipped space's labels — short ones padded to
// the 55-column label field and long ones past it — with metric
// vectors that cover padding of the %9.1f field (narrower and wider
// than nine), rounding, signs, zero, NaN and infinities.
func TestStreamLineMatchesFmt(t *testing.T) {
	vectors := []flexos.Metrics{
		{},
		{Throughput: 512_345.678, P50us: 1.005, P99us: 12.345, MaxUs: 99.995, PeakMemBytes: 123456, BootCycles: 7_000_000, Survival: 0.123456789},
		{Throughput: 49.95, P50us: 0.004999, P99us: 2.5, MaxUs: 1e9, PeakMemBytes: math.MaxUint64, BootCycles: 1},
		{Throughput: 123_456_789_012, Survival: 1},
		{Throughput: -950, P50us: -0.001, Survival: -1},
		{Throughput: math.Copysign(0, -1), P99us: math.NaN(), MaxUs: math.Inf(-1)},
		{Throughput: math.Inf(1), Survival: math.NaN()},
		{Throughput: math.NaN(), Survival: math.Inf(1)},
	}
	cfg := &flexos.ExploreConfig{}
	check := func(label string) {
		cfg.Blocks = [][]string{{label}}
		for _, m := range vectors {
			for _, scenarioMode := range []bool{false, true} {
				if got, want := StreamLine(scenarioMode, cfg, m), fmtStreamLine(scenarioMode, label, m); got != want {
					t.Fatalf("StreamLine(%t, %q, %+v) =\n%q, fmt\n%q", scenarioMode, label, m, got, want)
				}
			}
		}
	}
	for _, label := range []string{"", "x", strings.Repeat("y", 55), strings.Repeat("z", 80), "µs-wide ünïcode label"} {
		check(label)
	}
	for _, cfgs := range exploretest.ShippedSpaces() {
		for _, c := range cfgs {
			for _, m := range vectors[:2] {
				for _, scenarioMode := range []bool{false, true} {
					if got, want := StreamLine(scenarioMode, c, m), fmtStreamLine(scenarioMode, c.Label(), m); got != want {
						t.Fatalf("StreamLine(%t, %q) =\n%q, fmt\n%q", scenarioMode, c.Label(), got, want)
					}
				}
			}
		}
	}
}
