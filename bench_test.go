// Benchmarks regenerating every table and figure of the FlexOS paper's
// evaluation (§6). Each benchmark runs the corresponding experiment on
// the deterministic simulated machine and reports the headline numbers
// as custom metrics; `go test -bench=. -benchmem` therefore reproduces
// the paper's result set, and cmd/flexos-bench prints the full tables.
//
// Simulated metrics are suffixed "sim-" (they are cycles/throughput on
// the simulated 2.2 GHz Xeon, not host time).
package flexos_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flexos"
	"flexos/internal/figures"
	"flexos/internal/scenario"
)

// Benchmark sizes: the simulation is deterministic, so modest request
// counts give exact steady-state numbers.
const (
	benchRequests = 200
	benchQueries  = 80
	benchPackets  = 30
)

// BenchmarkFig05HardeningPoset builds and prunes the Figure 5 poset: a
// fixed two-compartment Redis image with per-compartment hardening
// varied over {none, CFI, ASAN, CFI+ASAN}.
func BenchmarkFig05HardeningPoset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nodes, err := figures.Fig5(context.Background(), benchRequests, 600_000, 0)
		if err != nil {
			b.Fatal(err)
		}
		stars := 0
		for _, n := range nodes {
			if n.Star {
				stars++
			}
		}
		b.ReportMetric(float64(len(nodes)), "configs")
		b.ReportMetric(float64(stars), "stars")
	}
}

// BenchmarkFig06Redis measures the 80-configuration Redis space
// (Figure 6 top).
func BenchmarkFig06Redis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Fig6Redis(context.Background(), benchRequests, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Perf, "sim-max-req/s")
		b.ReportMetric(rows[0].Perf, "sim-min-req/s")
		b.ReportMetric(rows[len(rows)-1].Perf/rows[0].Perf, "spread-x")
	}
}

// BenchmarkFig06Nginx measures the Nginx half of the space (Figure 6
// bottom).
func BenchmarkFig06Nginx(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Fig6Nginx(context.Background(), benchRequests, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Perf, "sim-max-req/s")
		b.ReportMetric(rows[0].Perf, "sim-min-req/s")
	}
}

// BenchmarkFig07Scatter pairs the two Figure 6 datasets into the
// normalized Redis-vs-Nginx scatter.
func BenchmarkFig07Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		redisRows, err := figures.Fig6Redis(context.Background(), benchRequests, 0)
		if err != nil {
			b.Fatal(err)
		}
		nginxRows, err := figures.Fig6Nginx(context.Background(), benchRequests, 0)
		if err != nil {
			b.Fatal(err)
		}
		pts := figures.Fig7(redisRows, nginxRows)
		b.ReportMetric(float64(len(pts)), "points")
	}
}

// BenchmarkFig08SafetyOrdering runs partial safety ordering on the Redis
// space with the paper's 500k req/s budget.
func BenchmarkFig08SafetyOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Fig8(context.Background(), benchRequests, 500_000, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Stars)), "safest-configs")
		b.ReportMetric(float64(res.Evaluated), "evaluated")
		b.ReportMetric(float64(res.Total), "total-configs")
	}
}

// BenchmarkFig09IPerf sweeps the receive-buffer size across backends.
func BenchmarkFig09IPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Fig9(benchPackets)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "FlexOS NONE" && r.BufSize == 16384 {
				b.ReportMetric(r.Gbps, "sim-peak-Gb/s")
			}
		}
	}
}

// BenchmarkFig10SQLite runs the Figure 10 comparison (FlexOS
// NONE/MPK3/EPT2 measured; Linux, SeL4/Genode, linuxu, CubicleOS
// composed over the measured workload shape).
func BenchmarkFig10SQLite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Fig10(benchQueries)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "FlexOS" && r.Isolation == "MPK3" {
				b.ReportMetric(r.Seconds, "sim-mpk3-s")
			}
			if r.System == "FlexOS" && r.Isolation == "NONE" {
				b.ReportMetric(r.Seconds, "sim-none-s")
			}
		}
	}
}

// BenchmarkFig11aAllocLatency measures shared stack-variable allocation
// under the three sharing strategies.
func BenchmarkFig11aAllocLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Fig11a()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Buffers == 1 {
				switch r.Strategy {
				case "dss":
					b.ReportMetric(float64(r.Cycles), "sim-dss-cycles")
				case "heap":
					b.ReportMetric(float64(r.Cycles), "sim-heap-cycles")
				}
			}
		}
	}
}

// BenchmarkFig11bGateLatency measures raw gate round-trips.
func BenchmarkFig11bGateLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Fig11b()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Gate {
			case "MPK-light":
				b.ReportMetric(float64(r.Cycles), "sim-mpk-light-cycles")
			case "MPK-dss":
				b.ReportMetric(float64(r.Cycles), "sim-mpk-dss-cycles")
			case "EPT":
				b.ReportMetric(float64(r.Cycles), "sim-ept-cycles")
			}
		}
	}
}

// BenchmarkTable1PortingEffort audits the shared-variable annotations.
func BenchmarkTable1PortingEffort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figures.Table1()
		vars := 0
		for _, r := range rows {
			vars += r.SharedVars
		}
		b.ReportMetric(float64(len(rows)), "components")
		b.ReportMetric(float64(vars), "shared-vars")
	}
}

// BenchmarkAblationGateFlavor quantifies design decision 2 of DESIGN.md:
// the light (register/stack-sharing) gate vs the full gate on the Redis
// scheduler split.
func BenchmarkAblationGateFlavor(b *testing.B) {
	split := func(mode flexos.GateMode, sharing flexos.Sharing) flexos.ImageSpec {
		return flexos.ImageSpec{
			Mechanism: "intel-mpk", GateMode: mode, Sharing: sharing,
			Comps: []flexos.CompSpec{
				{Name: "c0", Libs: append(flexos.TCBLibs(), flexos.LibRedis, flexos.LibC, flexos.LibNet)},
				{Name: "c1", Libs: []string{flexos.LibSched}},
			},
		}
	}
	get := scenario.RedisGet100.WithOps(benchRequests)
	for i := 0; i < b.N; i++ {
		light, err := get.Run(split(flexos.GateLight, flexos.ShareStack))
		if err != nil {
			b.Fatal(err)
		}
		full, err := get.Run(split(flexos.GateFull, flexos.ShareDSS))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(light.Throughput, "sim-light-req/s")
		b.ReportMetric(full.Throughput, "sim-full-req/s")
	}
}

// BenchmarkAblationSharingStrategy quantifies DSS vs stack-to-heap
// conversion on the iPerf hot path (design decision 2).
func BenchmarkAblationSharingStrategy(b *testing.B) {
	spec := func(sharing flexos.Sharing) flexos.ImageSpec {
		return flexos.ImageSpec{
			Mechanism: "intel-mpk", GateMode: flexos.GateFull, Sharing: sharing,
			Comps: []flexos.CompSpec{
				{Name: "sys", Libs: append(flexos.TCBLibs(), flexos.LibC, flexos.LibSched, flexos.LibNet)},
				{Name: "app", Libs: []string{flexos.LibIPerf}},
			},
		}
	}
	const bufSize = 64
	stream := scenario.IPerfAt(bufSize).WithOps(benchPackets)
	gbps := func(m flexos.Metrics) float64 { return m.Throughput * bufSize * 8 / 1e9 }
	for i := 0; i < b.N; i++ {
		dss, err := stream.Run(spec(flexos.ShareDSS))
		if err != nil {
			b.Fatal(err)
		}
		heap, err := stream.Run(spec(flexos.ShareHeap))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gbps(dss), "sim-dss-Gb/s")
		b.ReportMetric(gbps(heap), "sim-heap-Gb/s")
	}
}

// throughputMeasure adapts a scenario at benchRequests operations into
// a scalar exploration measure for the engine benchmarks below.
func throughputMeasure(sc *flexos.Scenario) func(*flexos.ExploreConfig) (float64, error) {
	sc = sc.WithOps(benchRequests)
	return func(c *flexos.ExploreConfig) (float64, error) {
		m, err := sc.Run(c.Spec(flexos.TCBLibs()))
		return m.Throughput, err
	}
}

// redisMeasure is Redis GET throughput (redis-get100).
var redisMeasure = throughputMeasure(scenario.RedisGet100)

// benchmarkQueryFig6 sweeps the 80-point Redis space exhaustively
// (no pruning, no memo) with the given worker count, through the
// unified Query engine.
func benchmarkQueryFig6(b *testing.B, workers int) {
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	q := flexos.NewQuery(cfgs).
		MeasureScalar(redisMeasure).
		Floor(flexos.MetricThroughput, 500_000).
		Workers(workers)
	for i := 0; i < b.N; i++ {
		res, err := q.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluated != res.Total {
			b.Fatalf("exhaustive sweep evaluated %d/%d", res.Evaluated, res.Total)
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// BenchmarkQueryFig6Sequential is the single-worker baseline sweep of
// the 80-point Fig. 6 Redis space.
func BenchmarkQueryFig6Sequential(b *testing.B) { benchmarkQueryFig6(b, 1) }

// BenchmarkQueryFig6Parallel is the same sweep fanned across
// GOMAXPROCS workers; its results are byte-identical to the sequential
// run, so the time delta against BenchmarkQueryFig6Sequential is pure
// engine speedup.
func BenchmarkQueryFig6Parallel(b *testing.B) { benchmarkQueryFig6(b, 0) }

// BenchmarkQueryParallelSpeedup times the sequential and parallel
// sweeps back to back and reports the wall-clock ratio directly
// (speedup-x ≈ 1 on single-core hosts, approaching the core count on
// parallel hardware — the measurements are independent simulations).
func BenchmarkQueryParallelSpeedup(b *testing.B) {
	q := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
		MeasureScalar(redisMeasure).
		Floor(flexos.MetricThroughput, 500_000)
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := q.Workers(1).Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		seq += time.Since(start)
		start = time.Now()
		if _, err := q.Workers(0).Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		par += time.Since(start)
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
}

// BenchmarkQueryMemoizedSweep measures a warm-memo sweep of the
// Fig. 6 space: after one cold exploration, every further sweep is pure
// cache traffic, which is what makes repeated cross-space exploration
// (Fig. 5 + Fig. 6 + Fig. 8 share points) nearly free.
func BenchmarkQueryMemoizedSweep(b *testing.B) {
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	q := flexos.NewQuery(cfgs).
		MeasureScalar(redisMeasure).
		Floor(flexos.MetricThroughput, 500_000).
		Memo(flexos.NewExploreMemo()).
		Namespace("redis")
	if _, err := q.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.MemoHits != res.Total {
			b.Fatalf("warm sweep hit %d/%d", res.MemoHits, res.Total)
		}
	}
	b.ReportMetric(float64(len(cfgs)), "memo-hits")
}

// BenchmarkQueryCrossAppSpace exercises the engine at scale: the
// 320-point two-application, two-mechanism space with pruning.
func BenchmarkQueryCrossAppSpace(b *testing.B) {
	cfgs := flexos.CrossAppSpace(nil, flexos.RedisComponents(), flexos.NginxComponents())
	nginxMeasure := throughputMeasure(scenario.NginxKeepalive)
	measure := func(c *flexos.ExploreConfig) (float64, error) {
		for _, comp := range c.Components() {
			if comp == flexos.LibNginx {
				return nginxMeasure(c)
			}
		}
		return redisMeasure(c)
	}
	q := flexos.NewQuery(cfgs).MeasureScalar(measure).
		Floor(flexos.MetricThroughput, 400_000).
		Prune(true)
	for i := 0; i < b.N; i++ {
		res, err := q.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Evaluated), "evaluated")
		b.ReportMetric(float64(res.Total), "total-configs")
	}
}

// synthBenchSize is the synthetic-space size the engine benchmarks
// sweep: 10k points, 125× the paper's 80-point Figure 6 space — the
// scale the batch-dispatch engine and grouped safety order exist for.
const synthBenchSize = 10_000

// benchmarkQuerySynthetic sweeps the 10k-point synthetic space through
// the Query engine. The measure function is allocation-free and a few
// hundred ns per point, so the benchmark time is dominated by the
// engine itself: order construction, dispatch, frontier bookkeeping.
func benchmarkQuerySynthetic(b *testing.B, workers int, prune bool) {
	cfgs := flexos.SynthSpace(42, synthBenchSize)
	floor := flexos.SynthMedianThroughput(42, cfgs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh query wraps a fresh Space, so every iteration pays
		// the keys and the order a first query over the space pays.
		res, err := flexos.NewQuery(cfgs).
			Measure(flexos.SynthMeasure(42)).
			Floor(flexos.MetricThroughput, floor).
			Workers(workers).
			Prune(prune).
			Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Evaluated), "evaluated")
			b.ReportMetric(float64(res.Total), "total-configs")
		}
	}
	b.ReportMetric(float64(synthBenchSize)*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkQuerySyntheticSequential is the single-worker exhaustive
// sweep of the 10k-point synthetic space — the oracle-side cost of the
// equivalence matrix, and the engine's sequential throughput headline.
func BenchmarkQuerySyntheticSequential(b *testing.B) { benchmarkQuerySynthetic(b, 1, false) }

// BenchmarkQuerySyntheticParallel8 fans the same sweep across eight
// workers via batch work-stealing; results are byte-identical, so the
// delta against Sequential is pure dispatch overhead (plus parallel
// speedup on multi-core hosts).
func BenchmarkQuerySyntheticParallel8(b *testing.B) { benchmarkQuerySynthetic(b, 8, false) }

// BenchmarkQuerySyntheticPruned runs the pruned ready-frontier walk
// over the synthetic space with a median budget, exercising its
// pass-by-pass release at 10k points.
func BenchmarkQuerySyntheticPruned(b *testing.B) { benchmarkQuerySynthetic(b, 8, true) }

// BenchmarkQuerySyntheticBudgeted runs the budgeted branch-and-bound
// sweep over the 10k-point space under a tight (95th-percentile)
// monotone floor with a 2000-measurement cap — the headline budgeted
// mode: the frontier walk decides the whole space while measuring only
// the feasible region plus its minimal infeasible boundary.
func BenchmarkQuerySyntheticBudgeted(b *testing.B) {
	cfgs := flexos.SynthSpace(42, synthBenchSize)
	floor := flexos.SynthQuantileThroughput(42, cfgs, 0.95)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Space per iteration, as in benchmarkQuerySynthetic.
		res, err := flexos.NewQuery(cfgs).
			Measure(flexos.SynthMeasure(42)).
			Floor(flexos.MetricThroughput, floor).
			Workers(8).
			Prune(true).
			MeasureBudget(2_000).
			Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Measured), "measured")
			b.ReportMetric(float64(res.Skipped), "skipped")
			b.ReportMetric(float64(res.Total), "total-configs")
		}
	}
	b.ReportMetric(float64(synthBenchSize)*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkQueryAttackSurvival runs the attack-scored sweep the
// attack-matrix CI job exercises end to end: the Fig6 Redis space
// expanded 12× along the ASLR ladder and control-flow variants on the
// RISC-V profile, every point measured under the combined attacker,
// ranked by survival under a filter-only survival floor plus a monotone
// (prunable) throughput floor. This is the cost of one full attack-axis
// query — workload simulation, survival model, and the grouped safety
// order over the 960-point space. The measure wrapper caches one
// simulation per image for as long as it lives, so every iteration
// builds a fresh one and times a cold query; "simulations" counts the
// workload runs per query.
func BenchmarkQueryAttackSurvival(b *testing.B) {
	att, ok := flexos.AttackByName("combined")
	if !ok {
		b.Fatal("attack scenario \"combined\" missing")
	}
	sc, ok := flexos.ScenarioByName("redis-get90")
	if !ok {
		b.Fatal("scenario \"redis-get90\" missing")
	}
	sc = sc.WithOps(40)
	quad, _ := sc.Quad()
	space := flexos.AttackSpace(flexos.Fig6Space(quad),
		flexos.AttackSpec{Scenario: att.Name(), Profile: "riscv"})
	base := flexos.MeasureScenario(sc)
	var sims atomic.Int64
	counted := func(c *flexos.ExploreConfig) (flexos.Metrics, error) {
		sims.Add(1)
		return base(c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := flexos.NewQuery(space).
			Measure(flexos.MeasureAttack(att, counted)).
			RankBy(flexos.MetricSurvival).
			Floor(flexos.MetricSurvival, 0.5).
			Floor(flexos.MetricThroughput, 1).
			Workers(8).
			Prune(true).
			Namespace(flexos.AttackNamespace(att, sc.MemoKey()))
		res, err := q.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Total), "total-configs")
			b.ReportMetric(float64(len(res.Safest)), "safest")
			if len(res.Safest) > 0 {
				b.ReportMetric(res.Measurements[res.Safest[0]].Metrics.Survival, "sim-survival")
			}
		}
	}
	b.ReportMetric(float64(sims.Load())/float64(b.N), "simulations")
	b.ReportMetric(float64(len(space))*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkSpaceOrder times the engine's order layer: one pruned
// query with a constant measure over a fresh Space, so the safety
// order, its Hasse edges and the walk are built cold each iteration
// while the measure costs nothing. The Space (its keys) is made outside
// the timer. attack@riscv is the 960-point swept attack space and
// cross4@riscv the four-mechanism Redis cross space swept the same way
// (3,840 points), both one group that crosses its images with ASLR
// rungs; cross is the 320-point two-application space, whose groups
// have a single ASLR value.
func BenchmarkSpaceOrder(b *testing.B) {
	redis := flexos.RedisComponents()
	riscv := flexos.AttackSpec{Scenario: "combined", Profile: "riscv"}
	spaces := []struct {
		name string
		cfgs []*flexos.ExploreConfig
	}{
		{"attack@riscv", flexos.AttackSpace(flexos.Fig6Space(redis), riscv)},
		{"cross4@riscv", flexos.AttackSpace(
			flexos.CrossAppSpace([]string{"intel-mpk", "vm-ept", "cheri", "intel-sgx"}, redis), riscv)},
		{"cross", flexos.CrossAppSpace(nil, redis, flexos.NginxComponents())},
	}
	constant := func(*flexos.ExploreConfig) (float64, error) { return 1, nil }
	for _, sp := range spaces {
		b.Run(sp.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				space := flexos.NewSpace(sp.cfgs)
				b.StartTimer()
				res, err := flexos.NewSpaceQuery(space).MeasureScalar(constant).
					Floor(flexos.MetricThroughput, 1).Prune(true).Workers(1).
					Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Evaluated != len(sp.cfgs) {
					b.Fatalf("evaluated %d/%d", res.Evaluated, len(sp.cfgs))
				}
			}
			b.ReportMetric(float64(len(sp.cfgs)), "configs")
		})
	}
}

// BenchmarkAblationMonotonicPruning quantifies design decision 4: how
// many of the 80 measurements the explorer's monotonic pruning saves.
func BenchmarkAblationMonotonicPruning(b *testing.B) {
	q := flexos.NewQuery(flexos.Fig6Space(flexos.RedisComponents())).
		MeasureScalar(redisMeasure).
		Floor(flexos.MetricThroughput, 500_000).
		Prune(true)
	for i := 0; i < b.N; i++ {
		pruned, err := q.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pruned.Evaluated), "evaluated-with-pruning")
		b.ReportMetric(float64(pruned.Total), "total-configs")
	}
}

// BenchmarkAblationEPTTCBDuplication reports the TCB duplication cost of
// multi-AS backends (design decision 3).
func BenchmarkAblationEPTTCBDuplication(b *testing.B) {
	spec := flexos.ImageSpec{
		Mechanism: "vm-ept",
		Comps: []flexos.CompSpec{
			{Name: "c0", Libs: append(flexos.TCBLibs(), flexos.LibSQLite, flexos.LibC, flexos.LibSched)},
			{Name: "fs", Libs: []string{flexos.LibVFS, flexos.LibRamfs, flexos.LibTime}},
		},
	}
	for i := 0; i < b.N; i++ {
		img, err := flexos.Build(flexos.FullCatalog(), spec)
		if err != nil {
			b.Fatal(err)
		}
		r := img.Report()
		b.ReportMetric(float64(r.Backend.TCBCopies), "tcb-copies")
		b.ReportMetric(float64(r.Backend.VMs), "vms")
	}
}

// BenchmarkBuild measures image build ("toolchain") speed itself.
func BenchmarkBuild(b *testing.B) {
	spec := flexos.ImageSpec{
		Mechanism: "intel-mpk", GateMode: flexos.GateFull, Sharing: flexos.ShareDSS,
		Comps: []flexos.CompSpec{
			{Name: "c0", Libs: append(flexos.TCBLibs(), flexos.LibRedis, flexos.LibC, flexos.LibSched)},
			{Name: "c1", Libs: []string{flexos.LibNet}},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cat := flexos.FullCatalog()
		if _, err := flexos.Build(cat, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCtxCall measures one simulated call through Ctx.Call:
// without arguments within the caller's compartment (a plain call) and
// across a full MPK gate, then across the gate with each argument kind —
// five words, the string slot, the byte slot. None costs a host
// allocation, so the allocs/op gate guards every argument kind.
func BenchmarkCtxCall(b *testing.B) {
	newCatalog := func() *flexos.Catalog {
		cat := flexos.FullCatalog()
		c := &flexos.Component{Name: "bench"}
		c.AddFunc(&flexos.Func{Name: "nop", Work: 10, EntryPoint: true,
			Impl: func(_ *flexos.Ctx, a *flexos.Args) (flexos.Ret, error) {
				return flexos.Ret{W: a.W[4] + uint64(len(a.B)), S: a.S}, nil
			}})
		cat.MustRegister(c)
		return cat
	}
	same := []flexos.CompSpec{{Name: "c0", Libs: append(flexos.TCBLibs(), "bench")}}
	split := []flexos.CompSpec{{Name: "c0", Libs: flexos.TCBLibs()}, {Name: "c1", Libs: []string{"bench"}}}
	withBytes := flexos.Args{B: []byte("GET key42\r\n")}
	for _, bc := range []struct {
		name  string
		comps []flexos.CompSpec
		args  flexos.Args
	}{
		{"SameCompartment", same, flexos.Args{}},
		{"MPKGate", split, flexos.Args{}},
		{"Words", split, flexos.Words(1, 2, 3, 4, 5)},
		{"String", split, flexos.Args{S: "/test.db"}},
		{"Bytes", split, withBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			img, err := flexos.Build(newCatalog(), flexos.ImageSpec{
				Mechanism: "intel-mpk", GateMode: flexos.GateFull, Sharing: flexos.ShareDSS, Comps: bc.comps,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx, err := img.NewContext("bench", flexos.LibBoot)
			if err != nil {
				b.Fatal(err)
			}
			nop := flexos.Symbol("bench", "nop")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctx.Call(nop, bc.args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
