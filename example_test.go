package flexos_test

import (
	"context"
	"fmt"

	"flexos"
)

// ExampleBuild builds the paper's example configuration and prints the
// gate bindings the toolchain instantiated.
func ExampleBuild() {
	cat := flexos.FullCatalog()
	cfg, _ := flexos.ParseConfig(`
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- lwip: comp2
gate: full
sharing: dss
`)
	spec, _ := flexos.SpecFromConfig(cfg, cat)
	img, _ := flexos.Build(cat, spec)
	for _, g := range img.Report().Gates {
		fmt.Printf("%s -> %s via %s (%d cycles)\n", g.From, g.To, g.Gate, g.Cost)
	}
	// Output:
	// comp1 -> comp2 via mpk/full (108 cycles)
	// comp2 -> comp1 via mpk/full (108 cycles)
}

// ExampleNewQuery runs partial safety ordering over the Redis design
// space with a synthetic measurement (real measurements run a
// scenario, see ExampleQuery_Workload): one query, a throughput floor,
// monotonic pruning.
func ExampleNewQuery() {
	cfgs := flexos.Fig6Space(flexos.RedisComponents())
	measure := func(c *flexos.ExploreConfig) (float64, error) {
		return 1000 - 150*float64(c.NumCompartments()-1) - 80*float64(c.HardenedCount()), nil
	}
	res, _ := flexos.NewQuery(cfgs).
		MeasureScalar(measure).
		Floor(flexos.MetricThroughput, 500).
		Prune(true).
		Run(context.Background())
	fmt.Printf("space=%d evaluated=%d safest=%d\n", res.Total, res.Evaluated, len(res.Safest))
	// Output:
	// space=80 evaluated=79 safest=9
}

// ExampleQuery_Workload explores the Redis design space under a mixed
// GET/SET scenario workload, constraining p99 latency instead of
// throughput, and extracts the safety × throughput × memory Pareto
// frontier from an unconstrained run. Everything runs on the
// deterministic simulated machine, so the counts are reproducible for
// any worker count.
func ExampleQuery_Workload() {
	sc, _ := flexos.ScenarioByName("redis-get90")
	quad, _ := sc.Quad()
	cfgs := flexos.Fig6Space(quad)
	res, _ := flexos.NewQuery(cfgs).
		Workload(sc).
		Ceiling(flexos.MetricP99, 2.0).
		Prune(true).
		Run(context.Background())
	fmt.Printf("space=%d evaluated=%d safest=%d\n", res.Total, res.Evaluated, len(res.Safest))

	full, _ := flexos.NewQuery(cfgs).Workload(sc).Run(context.Background())
	fmt.Printf("pareto=%d\n", len(full.ParetoFront()))
	// Output:
	// space=80 evaluated=54 safest=10
	// pareto=12
}

// ExampleScenario_Run measures one scenario on a single image and reads
// the full metric vector.
func ExampleScenario_Run() {
	sc, _ := flexos.ScenarioByName("sqlite-batch8")
	metrics, _ := sc.Run(flexos.ImageSpec{
		Mechanism: "none",
		Comps: []flexos.CompSpec{{
			Name: "c0",
			Libs: append(flexos.TCBLibs(), sc.Components()...),
		}},
	})
	fmt.Printf("ops=%d ordered=%v crossings=%d\n",
		metrics.Ops, metrics.P50us <= metrics.P99us && metrics.P99us <= metrics.MaxUs,
		metrics.Crossings)
	// Output:
	// ops=96 ordered=true crossings=0
}

// ExampleImage_NewContext shows the runtime side: spawning a thread in
// an application compartment and crossing a gate.
func ExampleImage_NewContext() {
	cat := flexos.FullCatalog()
	img, _ := flexos.Build(cat, flexos.ImageSpec{
		Mechanism: "intel-mpk",
		Comps: []flexos.CompSpec{
			{Name: "c0", Libs: append(flexos.TCBLibs(), flexos.LibRedis, flexos.LibC, flexos.LibSched)},
			{Name: "net", Libs: []string{flexos.LibNet}},
		},
	})
	ctx, _ := img.NewContext("main", flexos.LibRedis)
	sock, _ := ctx.Call(flexos.Symbol(flexos.LibNet, "socket"), flexos.Args{}) // crosses an MPK gate
	fmt.Printf("socket=%d crossings=%d\n", sock.Int(), img.Crossings())
	// Output:
	// socket=1 crossings=1
}
