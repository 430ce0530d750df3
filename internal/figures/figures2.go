package figures

import (
	"context"
	"errors"
	"fmt"
	"strings"

	iperfapp "flexos/internal/apps/iperf"
	sqliteapp "flexos/internal/apps/sqlite"

	"flexos/internal/baseline"
	"flexos/internal/core"
	"flexos/internal/explore"
	"flexos/internal/isolation"
	"flexos/internal/libc"
	"flexos/internal/machine"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
	"flexos/internal/ramfs"
	"flexos/internal/scenario"
	"flexos/internal/timesys"
	"flexos/internal/vfs"
)

// Fig5Node is one node of the Figure 5 hardening lattice.
type Fig5Node struct {
	Label  string
	Perf   float64
	Pruned bool // below the performance budget
	Star   bool // maximal element meeting the budget
}

// Fig5 reproduces the Figure 5 poset subset: a fixed two-compartment
// Redis configuration (app+libc+sched / lwip), varying per-compartment
// hardening over {none, CFI, ASAN, CFI+ASAN}, pruned under a budget.
// ctx bounds the sweep; workers <= 0 selects GOMAXPROCS.
func Fig5(ctx context.Context, requests int, budget float64, workers int) ([]Fig5Node, error) {
	sc := scenario.RedisGet100.WithOps(requests)
	comps, _ := sc.Quad()
	cfgs := explore.Fig5Space(
		[]string{comps[0], comps[1], comps[2]},
		[]string{comps[3]},
	)
	res, err := explore.Engine{}.Run(ctx, explore.Request{
		Space:       explore.NewSpace(cfgs),
		Measure:     throughputOf(sc),
		Constraints: []explore.Constraint{explore.BudgetConstraint(scenario.MetricThroughput, budget)},
		Workers:     workers,
	})
	if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
		return nil, err
	}
	stars := map[int]bool{}
	for _, i := range res.Safest {
		stars[i] = true
	}
	var nodes []Fig5Node
	for i, m := range res.Measurements {
		nodes = append(nodes, Fig5Node{
			Label:  m.Config.Label(),
			Perf:   m.Perf,
			Pruned: m.Evaluated && m.Perf < budget,
			Star:   stars[i],
		})
	}
	return nodes, nil
}

// FormatFig5 renders the lattice as text.
func FormatFig5(nodes []Fig5Node, budget float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: hardening poset (2 compartments), budget %.0fk req/s\n", budget/1000)
	for _, n := range nodes {
		mark := " "
		if n.Star {
			mark = "*"
		} else if n.Pruned {
			mark = "x"
		}
		fmt.Fprintf(&b, " [%s] %-60s %8.1fk req/s\n", mark, n.Label, n.Perf/1000)
	}
	b.WriteString(" [*] = safest under budget, [x] = pruned (perf violation)\n")
	return b.String()
}

// Fig9Row is one Figure 9 series point.
type Fig9Row struct {
	BufSize int
	System  string
	Gbps    float64
}

// Fig9 sweeps the iPerf receive-buffer size (16 B .. 16 KiB) across the
// paper's five variants: Unikraft (== FlexOS NONE by P4), FlexOS NONE,
// MPK2-light (shared call stacks), MPK2-dss (protected stacks + DSS),
// and EPT2.
func Fig9(packets int) ([]Fig9Row, error) {
	sizes := []int{16, 64, 128, 256, 1024, 4096, 16384}
	sysLibs := append(oslib.TCB(), libc.Name, oslib.SchedName, netstack.Name)

	specNone := core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0", Libs: append(append([]string{}, sysLibs...), iperfapp.Name),
		}},
	}
	mpk2 := func(mode isolation.GateMode, sharing isolation.Sharing) core.ImageSpec {
		return core.ImageSpec{
			Mechanism: "intel-mpk", GateMode: mode, Sharing: sharing,
			Comps: []core.CompSpec{
				{Name: "sys", Libs: sysLibs},
				{Name: "app", Libs: []string{iperfapp.Name}},
			},
		}
	}
	ept2 := mpk2(isolation.GateDefault, isolation.ShareDSS)
	ept2.Mechanism = "vm-ept"

	variants := []struct {
		name string
		spec core.ImageSpec
	}{
		{"Unikraft", specNone}, // identical to FlexOS NONE (P4)
		{"FlexOS NONE", specNone},
		{"FlexOS MPK2-light", mpk2(isolation.GateLight, isolation.ShareStack)},
		{"FlexOS MPK2-dss", mpk2(isolation.GateFull, isolation.ShareDSS)},
		{"FlexOS EPT2", ept2},
	}
	freq := machine.DefaultCosts().FreqHz
	var rows []Fig9Row
	for _, size := range sizes {
		sc := scenario.IPerfAt(size).WithOps(packets)
		for _, v := range variants {
			m, err := sc.Run(v.spec)
			if err != nil {
				return nil, fmt.Errorf("figures: fig9 %s @%dB: %w", v.name, size, err)
			}
			// Goodput: every byte of every packet over the simulated
			// time of the receive loop.
			seconds := float64(m.Cycles) / freq
			gbps := float64(size*m.Ops) * 8 / seconds / 1e9
			rows = append(rows, Fig9Row{BufSize: size, System: v.name, Gbps: gbps})
		}
	}
	return rows, nil
}

// FormatFig9 renders the sweep as a series table.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9: iPerf throughput (Gb/s) vs receive buffer size\n")
	order := []string{"Unikraft", "FlexOS NONE", "FlexOS MPK2-light", "FlexOS MPK2-dss", "FlexOS EPT2"}
	bySize := map[int]map[string]float64{}
	var sizes []int
	for _, r := range rows {
		m, ok := bySize[r.BufSize]
		if !ok {
			m = map[string]float64{}
			bySize[r.BufSize] = m
			sizes = append(sizes, r.BufSize)
		}
		m[r.System] = r.Gbps
	}
	fmt.Fprintf(&b, "%-8s", "size")
	for _, s := range order {
		fmt.Fprintf(&b, " %18s", s)
	}
	b.WriteString("\n")
	for _, size := range sizes {
		fmt.Fprintf(&b, "%-8d", size)
		for _, s := range order {
			fmt.Fprintf(&b, " %18.3f", bySize[size][s])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig10Row is one Figure 10 bar.
type Fig10Row struct {
	System    string
	Isolation string
	Seconds   float64 // scaled to the paper's 5000 queries
	Measured  bool    // true = real image run, false = comparator model
}

// Fig10 runs the SQLite benchmark (queries scaled, reported as
// 5000-query time) on Unikraft (== FlexOS NONE), FlexOS NONE, MPK3 and
// EPT2, and composes the Linux, SeL4/Genode, Unikraft-linuxu and
// CubicleOS comparators over the same measured workload shape.
func Fig10(queries int) ([]Fig10Row, error) {
	scale := 5000.0 / float64(queries)
	specs := []struct {
		name, iso string
		spec      core.ImageSpec
	}{
		{"Unikraft", "NONE", sqliteSpecNone()},
		{"FlexOS", "NONE", sqliteSpecNone()},
		{"FlexOS", "MPK3", sqliteSpecMPK3()},
		{"FlexOS", "EPT2", sqliteSpecEPT2()},
	}
	costs := machine.DefaultCosts()
	sc := scenario.SQLiteBatch1.WithOps(queries)
	var rows []Fig10Row
	var baseWork uint64
	for _, s := range specs {
		m, err := sc.Run(s.spec)
		if err != nil {
			return nil, fmt.Errorf("figures: fig10 %s/%s: %w", s.name, s.iso, err)
		}
		if s.name == "FlexOS" && s.iso == "NONE" {
			baseWork = m.Cycles / uint64(m.Ops)
		}
		rows = append(rows, Fig10Row{
			System: s.name, Isolation: s.iso,
			Seconds: float64(m.Cycles) / costs.FreqHz * scale, Measured: true,
		})
	}
	w := baseline.Workload{
		Queries:        5000,
		BaseWorkCycles: baseWork,
		FSOps:          sqliteapp.FSOpsPerQuery(),
		TimeOps:        sqliteapp.TimeOpsPerQuery(),
	}
	for _, cmp := range baseline.Comparators() {
		rows = append(rows, Fig10Row{
			System: cmp.Name(), Isolation: cmp.Isolation(),
			Seconds: baseline.Seconds(cmp, w, costs),
		})
	}
	return rows, nil
}

func sqliteSpecNone() core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "none",
		Comps:     []core.CompSpec{{Name: "c0", Libs: append(oslib.TCB(), sqliteapp.Components...)}},
	}
}

func sqliteSpecMPK3() core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []core.CompSpec{
			{Name: "comp0", Libs: append(oslib.TCB(), sqliteapp.Name, libc.Name, oslib.SchedName)},
			{Name: "fs", Libs: []string{vfs.Name, ramfs.Name}},
			{Name: "time", Libs: []string{timesys.Name}},
		},
	}
}

func sqliteSpecEPT2() core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "vm-ept",
		Comps: []core.CompSpec{
			{Name: "comp0", Libs: append(oslib.TCB(), sqliteapp.Name, libc.Name, oslib.SchedName)},
			{Name: "fs", Libs: []string{vfs.Name, ramfs.Name, timesys.Name}},
		},
	}
}

// FormatFig10 renders the bars.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Figure 10: SQLite, 5000 INSERT queries (seconds)\n")
	for _, r := range rows {
		src := "modeled "
		if r.Measured {
			src = "measured"
		}
		fmt.Fprintf(&b, "%-16s %-6s %9.3fs  (%s)\n", r.System, r.Isolation, r.Seconds, src)
	}
	return b.String()
}

// Fig11aRow is one allocation-latency measurement.
type Fig11aRow struct {
	Strategy string
	Buffers  int
	Cycles   uint64
}

// Fig11a measures the cost of allocating 1-3 shared 1-byte stack
// variables under the three sharing strategies: stack-to-heap conversion,
// DSS, and fully shared stacks (Figure 11a).
func Fig11a() ([]Fig11aRow, error) {
	var rows []Fig11aRow
	for _, strat := range []struct {
		name    string
		sharing isolation.Sharing
	}{
		{"heap", isolation.ShareHeap},
		{"dss", isolation.ShareDSS},
		{"shared-stack", isolation.ShareStack},
	} {
		for buffers := 1; buffers <= 3; buffers++ {
			cycles, err := measureAllocCost(strat.sharing, buffers)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig11aRow{Strategy: strat.name, Buffers: buffers, Cycles: cycles})
		}
	}
	return rows, nil
}

// measureAllocCost builds a 2-compartment image whose isolated component
// has a function allocating n shared 1-byte stack variables, and
// measures the allocation cost alone.
func measureAllocCost(sharing isolation.Sharing, buffers int) (uint64, error) {
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	var allocCycles uint64
	comp := core.NewComponent("alloctest")
	comp.AddFunc(&core.Func{
		Name: "run", Work: 1, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			start := ctx.Machine().Clock.Cycles()
			for i := 0; i < buffers; i++ {
				if _, err := ctx.StackAlloc(1, true); err != nil {
					return core.Ret{}, err
				}
			}
			allocCycles = ctx.Machine().Clock.Cycles() - start
			return core.Ret{}, nil
		},
	})
	cat.MustRegister(comp)
	img, err := core.Build(cat, core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   sharing,
		Comps: []core.CompSpec{
			{Name: "c0", Libs: oslib.TCB()},
			{Name: "c1", Libs: []string{"alloctest"}},
		},
	})
	if err != nil {
		return 0, err
	}
	ctx, err := img.NewContext("t", "alloctest")
	if err != nil {
		return 0, err
	}
	// Warm the allocator (first allocation may take the slow path),
	// then measure, like the paper's microbenchmark loop.
	run := core.Symbol("alloctest", "run")
	if _, err := ctx.Call(run, core.Args{}); err != nil {
		return 0, err
	}
	if _, err := ctx.Call(run, core.Args{}); err != nil {
		return 0, err
	}
	return allocCycles, nil
}

// FormatFig11a renders the latencies.
func FormatFig11a(rows []Fig11aRow) string {
	var b strings.Builder
	b.WriteString("Figure 11a: shared stack-variable allocation latency (cycles)\n")
	fmt.Fprintf(&b, "%-14s %-10s %s\n", "strategy", "#buffers", "cycles")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-10d %d\n", r.Strategy, r.Buffers, r.Cycles)
	}
	return b.String()
}

// Fig11bRow is one gate-latency bar.
type Fig11bRow struct {
	Gate   string
	Cycles uint64
}

// Fig11b reports the raw gate latencies: function call, MPK-light,
// MPK-dss (full), EPT RPC, and Linux syscalls with and without KPTI.
// FlexOS gate numbers are measured through real gate objects; syscalls
// come from the calibrated cost model.
func Fig11b() ([]Fig11bRow, error) {
	costs := machine.DefaultCosts()
	measure := func(mech string, mode isolation.GateMode) (uint64, error) {
		cat := core.NewCatalog()
		oslib.RegisterTCB(cat)
		comp := core.NewComponent("target")
		comp.AddFunc(&core.Func{Name: "noop", Work: 0, EntryPoint: true})
		cat.MustRegister(comp)
		img, err := core.Build(cat, core.ImageSpec{
			Mechanism: mech, GateMode: mode, Sharing: isolation.ShareDSS,
			Comps: []core.CompSpec{
				{Name: "c0", Libs: oslib.TCB()},
				{Name: "c1", Libs: []string{"target"}},
			},
		})
		if err != nil {
			return 0, err
		}
		ctx, err := img.NewContext("t", oslib.BootName)
		if err != nil {
			return 0, err
		}
		// Warm, then measure one crossing; subtract the frame cost by
		// measuring the raw gate binding too.
		noop := core.Symbol("target", "noop")
		if _, err := ctx.Call(noop, core.Args{}); err != nil {
			return 0, err
		}
		start := img.Mach.Clock.Cycles()
		if _, err := ctx.Call(noop, core.Args{}); err != nil {
			return 0, err
		}
		return img.Mach.Clock.Cycles() - start - costs.StackAlloc, nil
	}

	var rows []Fig11bRow
	rows = append(rows, Fig11bRow{Gate: "function", Cycles: costs.FuncCall})
	light, err := measure("intel-mpk", isolation.GateLight)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig11bRow{Gate: "MPK-light", Cycles: light})
	full, err := measure("intel-mpk", isolation.GateFull)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig11bRow{Gate: "MPK-dss", Cycles: full})
	ept, err := measure("vm-ept", isolation.GateDefault)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig11bRow{Gate: "EPT", Cycles: ept})
	rows = append(rows,
		Fig11bRow{Gate: "syscall-nokpti", Cycles: costs.SyscallNoKPTI},
		Fig11bRow{Gate: "syscall", Cycles: costs.SyscallKPTI},
	)
	return rows, nil
}

// FormatFig11b renders the gate latencies.
func FormatFig11b(rows []Fig11bRow) string {
	var b strings.Builder
	b.WriteString("Figure 11b: gate latencies (cycles, round-trip)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %6d\n", r.Gate, r.Cycles)
	}
	return b.String()
}

// Table1 reproduces the porting-effort table over the shipped catalog.
func Table1() []core.TableOneRow {
	return core.TableOne(scenario.FullCatalog())
}

// FormatTable1 renders the table.
func FormatTable1(rows []core.TableOneRow) string {
	var b strings.Builder
	b.WriteString("Table 1: porting effort (patch size, shared variables)\n")
	fmt.Fprintf(&b, "%-12s %-12s %s\n", "lib/app", "patch", "shared vars")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s +%d/-%-6d %d\n", r.Lib, r.PatchAdd, r.PatchDel, r.SharedVars)
	}
	return b.String()
}
