package explore

import (
	"context"
	"strings"
	"testing"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/poset"
	"flexos/internal/scenario"
)

var fig6Comps = [4]string{"libredis", "newlib", "uksched", "lwip"}

func TestFig6SpaceSize(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	// §6.2: "a total of 2x80 configurations" — 80 per application.
	if len(cfgs) != 80 {
		t.Fatalf("space size = %d, want 80", len(cfgs))
	}
	// 5 partitions x 16 hardening masks; partition sizes 1,2,2,2,3.
	compCount := map[int]int{}
	for _, c := range cfgs {
		compCount[c.NumCompartments()]++
	}
	if compCount[1] != 16 || compCount[2] != 48 || compCount[3] != 16 {
		t.Fatalf("compartment histogram = %v", compCount)
	}
	// IDs must be dense and in order.
	for i, c := range cfgs {
		if c.ID != i {
			t.Fatalf("config %d has ID %d", i, c.ID)
		}
	}
}

func TestFig5SpaceSize(t *testing.T) {
	cfgs := Fig5Space([]string{"a"}, []string{"b"})
	if len(cfgs) != 16 {
		t.Fatalf("Fig. 5 space = %d configs, want 16", len(cfgs))
	}
	p := poset.New(cfgs, Leq)
	if err := p.CheckOrder(); err != nil {
		t.Fatal(err)
	}
	// The all-hardened config dominates everything: unique maximum.
	max := p.Maximal(poset.BitsetOf(len(cfgs), func(int) bool { return true }))
	if len(max) != 1 {
		t.Fatalf("maximal = %v, want unique top", max)
	}
	top := cfgs[max[0]]
	if top.Hardening["a"].Count() != 2 || top.Hardening["b"].Count() != 2 {
		t.Fatalf("top of the lattice = %s", top.Label())
	}
}

func TestLeqPartitionRefinement(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	var a, e *Config // A: 1 comp, E: 3 comps, both unhardened
	for _, c := range cfgs {
		if c.HardenedCount() != 0 {
			continue
		}
		switch c.NumCompartments() {
		case 1:
			a = c
		case 3:
			e = c
		}
	}
	if a == nil || e == nil {
		t.Fatal("missing base configs")
	}
	if !Leq(a, e) {
		t.Fatal("1-compartment config must be <= 3-compartment config")
	}
	if Leq(e, a) {
		t.Fatal("refinement must be strict")
	}
}

func TestLeqIncomparablePartitions(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	var b, c *Config // B: lwip split, C: sched split, unhardened
	for _, cf := range cfgs {
		if cf.HardenedCount() != 0 || cf.NumCompartments() != 2 {
			continue
		}
		if len(cf.Blocks[1]) == 1 && cf.Blocks[1][0] == "lwip" {
			b = cf
		}
		if len(cf.Blocks[1]) == 1 && cf.Blocks[1][0] == "uksched" {
			c = cf
		}
	}
	if b == nil || c == nil {
		t.Fatal("missing configs")
	}
	if Leq(b, c) || Leq(c, b) {
		t.Fatal("different 2-compartment splits must be incomparable")
	}
}

func TestLeqHardeningMonotone(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	// Same partition, hardening mask 0 vs full.
	if !Leq(cfgs[0], cfgs[15]) {
		t.Fatal("unhardened <= fully hardened expected")
	}
	if Leq(cfgs[15], cfgs[0]) {
		t.Fatal("hardening order must be strict")
	}
	// Disjoint hardening masks are incomparable: mask 1 vs mask 2.
	if Leq(cfgs[1], cfgs[2]) || Leq(cfgs[2], cfgs[1]) {
		t.Fatal("disjoint hardening sets must be incomparable")
	}
}

func TestLeqMechanismStrength(t *testing.T) {
	a := &Config{Blocks: [][]string{{"x"}, {"y"}}, Hardening: map[string]harden.Set{}, Mechanism: "intel-mpk"}
	b := &Config{Blocks: [][]string{{"x"}, {"y"}}, Hardening: map[string]harden.Set{}, Mechanism: "vm-ept"}
	if !Leq(a, b) || Leq(b, a) {
		t.Fatal("MPK must be strictly below EPT at equal structure")
	}
}

func TestLeqSharingAndGateRank(t *testing.T) {
	mk := func(mode isolation.GateMode, sh isolation.Sharing) *Config {
		return &Config{
			Blocks:    [][]string{{"x"}, {"y"}},
			Hardening: map[string]harden.Set{},
			Mechanism: "intel-mpk", GateMode: mode, Sharing: sh,
		}
	}
	light := mk(isolation.GateLight, isolation.ShareStack)
	full := mk(isolation.GateFull, isolation.ShareDSS)
	if !Leq(light, full) || Leq(full, light) {
		t.Fatal("light/shared-stack must be strictly below full/DSS")
	}
}

func TestPosetIsValidOrder(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	if err := poset.New(cfgs, Leq).CheckOrder(); err != nil {
		t.Fatal(err)
	}
}

// syntheticMeasure assigns a deterministic performance that decreases
// with safety: compartments and hardened components cost throughput.
func syntheticMeasure(c *Config) (float64, error) {
	perf := 1000.0
	perf -= 150 * float64(c.NumCompartments()-1)
	perf -= 80 * float64(c.HardenedCount())
	return perf, nil
}

// lift adapts a scalar measure into a throughput-only metric vector:
// exploretest.Lift for the in-package tests, which cannot import
// exploretest without an import cycle.
func lift(measure func(*Config) (float64, error)) MeasureMetrics {
	return func(c *Config) (Metrics, error) {
		v, err := measure(c)
		return Metrics{Throughput: v}, err
	}
}

// floor600 is the throughput floor the synthetic-measure tests explore
// under; syntheticMeasure leaves some configurations above it.
var floor600 = []Constraint{BudgetConstraint(scenario.MetricThroughput, 600)}

func TestRunExhaustive(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	res, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Workers: 1, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 80 {
		t.Fatalf("exhaustive run evaluated %d, want 80", res.Evaluated)
	}
	if len(res.Safest) == 0 {
		t.Fatal("no safest configs found")
	}
	// Every safest config must meet the budget, and no strictly-safer
	// config may meet it.
	for _, i := range res.Safest {
		if res.Measurements[i].Perf < 600 {
			t.Fatalf("safest config %d below budget", i)
		}
		for _, j := range res.Above(i) {
			m := res.Measurements[j]
			if m.Evaluated && m.Perf >= 600 {
				t.Fatalf("config %d meets budget but dominates 'safest' %d", j, i)
			}
		}
	}
}

func TestRunPruningIsSoundAndSaves(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	exhaustive, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Workers: 1, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Workers: 1, Prune: true, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	// Same stars.
	if len(exhaustive.Safest) != len(pruned.Safest) {
		t.Fatalf("pruning changed the answer: %v vs %v", exhaustive.Safest, pruned.Safest)
	}
	for i := range exhaustive.Safest {
		if exhaustive.Safest[i] != pruned.Safest[i] {
			t.Fatalf("pruning changed the answer: %v vs %v", exhaustive.Safest, pruned.Safest)
		}
	}
	// Fewer measurements (§5: pruning "significantly limits
	// combinatorial explosion").
	if pruned.Evaluated >= exhaustive.Evaluated {
		t.Fatalf("pruning saved nothing: %d vs %d", pruned.Evaluated, exhaustive.Evaluated)
	}
}

func TestSpecMaterialization(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	spec := cfgs[79].Spec([]string{"ukboot", "ukmm"}) // E partition, all hardened
	if len(spec.Comps) != 3 {
		t.Fatalf("spec comps = %d, want 3", len(spec.Comps))
	}
	if spec.Comps[0].Libs[0] != "ukboot" {
		t.Fatal("TCB libs must join the default compartment")
	}
	if spec.Mechanism != "intel-mpk" || spec.Sharing != isolation.ShareDSS {
		t.Fatalf("spec = %+v", spec)
	}
	found := false
	for _, hs := range spec.Comps[0].LibHardening {
		if !hs.Empty() {
			found = true
		}
	}
	if !found {
		t.Fatal("per-lib hardening lost in materialization")
	}
}

func TestLabel(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	l := cfgs[16].Label() // B partition, mask 0
	if l == "" {
		t.Fatal("empty label")
	}
}

func TestResultDOT(t *testing.T) {
	cfgs := Fig6Space(fig6Comps)
	res, err := Engine{}.Run(context.Background(), Request{Space: NewSpace(cfgs),
		Measure: lift(syntheticMeasure), Workers: 1, Prune: true, Constraints: floor600})
	if err != nil {
		t.Fatal(err)
	}
	dot := res.DOT("redis")
	for _, want := range []string{"digraph", "doubleoctagon", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q", want)
		}
	}
}
