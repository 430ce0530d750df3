package attack_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"flexos/internal/attack"
	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/isolation"
	"flexos/internal/poset"
	"flexos/internal/scenario"
)

// The adversarial oracle suite of the attack subsystem: survival must
// be monotone along the extended safety order on both random
// attack-axis spaces and the real expanded Fig6 spaces, a pure
// function of canonical configuration identity, and — when driven
// through the exploration engine — byte-identical to the brute-force
// reference at every worker count.

var fig6Quad = [4]string{"libredis", "newlib", "uksched", "lwip"}

// spaces returns the corpus the oracle sweeps: random attack-axis
// spaces plus every shipped space.
func spaces(t *testing.T) map[string][]*explore.Config {
	t.Helper()
	out := exploretest.ShippedSpaces()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out["random-"+string(rune('a'+seed))] = exploretest.RandomAttackSpace(rng, 50)
	}
	return out
}

// TestSurvivalMonotoneAlongLeq is the dominance oracle: for every
// comparable pair a <= b of every corpus space and every shipped
// scenario, Survival(a) <= Survival(b). This is the property that
// makes "safest surviving configuration" a meaningful query — and the
// reason survival floors may filter but never prune.
func TestSurvivalMonotoneAlongLeq(t *testing.T) {
	for name, cfgs := range spaces(t) {
		p := poset.New(cfgs, explore.Leq)
		for _, sc := range attack.All() {
			surv := make([]float64, len(cfgs))
			for i, c := range cfgs {
				surv[i] = sc.Survival(c)
				if surv[i] <= 0 || surv[i] > 1 {
					t.Fatalf("%s/%s: config %d survival %v outside (0,1]", name, sc.Name(), i, surv[i])
				}
			}
			for i := range cfgs {
				for j := range cfgs {
					if i != j && p.Leq(i, j) && surv[i] > surv[j] {
						t.Fatalf("%s/%s: %s <= %s but survival %v > %v",
							name, sc.Name(), cfgs[i].Label(), cfgs[j].Label(), surv[i], surv[j])
					}
				}
			}
		}
	}
}

// TestSurvivalIsFunctionOfKey pins determinism: configurations with
// equal canonical keys score bit-equal survival, and rescoring is
// stable call over call.
func TestSurvivalIsFunctionOfKey(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfgs := exploretest.RandomAttackSpace(rng, 120)
	for _, sc := range attack.All() {
		byKey := map[string]float64{}
		for _, c := range cfgs {
			s := sc.Survival(c)
			if s2 := sc.Survival(c); s2 != s {
				t.Fatalf("%s: unstable survival for %s: %v then %v", sc.Name(), c.Label(), s, s2)
			}
			if prev, ok := byKey[c.Key()]; ok && prev != s {
				t.Fatalf("%s: key %q scored %v and %v", sc.Name(), c.Key(), prev, s)
			}
			byKey[c.Key()] = s
		}
	}
}

// TestAttackSpaceExpansion pins the expansion geometry: an unpinned
// spec crosses the base with 3 ASLR rungs x 4 control-flow variants, a
// pinned spec only with the variants, and the expansion is
// deterministic — two calls yield identical canonical key sequences.
func TestAttackSpaceExpansion(t *testing.T) {
	base := explore.Fig6Space(fig6Quad)
	spec := attack.Spec{Scenario: "rop-chain", Profile: "riscv"}
	sp := attack.Space(base, spec)
	if want := len(base) * 12; len(sp) != want {
		t.Fatalf("unpinned expansion: %d configs, want %d", len(sp), want)
	}
	pinned := attack.Space(base, attack.Spec{
		Scenario: "rop-chain", ASLR: isolation.ASLR{EntropyBits: 16}, PinASLR: true,
	})
	if want := len(base) * 4; len(pinned) != want {
		t.Fatalf("pinned expansion: %d configs, want %d", len(pinned), want)
	}
	again := attack.Space(base, spec)
	for i := range sp {
		if sp[i].ID != i {
			t.Fatalf("config %d carries ID %d; want sequential renumbering", i, sp[i].ID)
		}
		if sp[i].Key() != again[i].Key() {
			t.Fatalf("expansion nondeterministic at %d:\n%s\n%s", i, sp[i].Key(), again[i].Key())
		}
		if sp[i].Profile != "riscv" {
			t.Fatalf("config %d lost the riscv profile", i)
		}
	}
	// Stamping never expands; it only pins the profile / ASLR axes.
	st := attack.Stamp(base, "riscv", isolation.ASLR{EntropyBits: 16, LeakResistant: true}, true)
	if len(st) != len(base) {
		t.Fatalf("Stamp changed the space size: %d -> %d", len(base), len(st))
	}
	for i, c := range st {
		if c.Profile != "riscv" || c.ASLR != (isolation.ASLR{EntropyBits: 16, LeakResistant: true}) {
			t.Fatalf("Stamp missed config %d: profile=%q aslr=%s", i, c.Profile, c.ASLR.String())
		}
		if base[i].Profile != "" || base[i].ASLR.Enabled() {
			t.Fatalf("Stamp mutated the base space at %d", i)
		}
	}
}

// TestAttackEngineMatchesOracleAtEveryWorkerCount drives the real
// expanded Fig6 space, scored by attack.Measure, through the pruned
// engine under a throughput floor plus a survival floor, and
// byte-compares against the brute-force reference at workers 1, 4
// and 8 — the grouped safety order over the attack dimensions must
// reproduce the oracle's dominance decisions exactly.
func TestAttackEngineMatchesOracleAtEveryWorkerCount(t *testing.T) {
	base := explore.Fig6Space(fig6Quad)
	for _, sc := range attack.All() {
		cfgs := attack.Space(base, attack.Spec{Scenario: sc.Name(), Profile: "riscv"})
		rng := rand.New(rand.NewSource(7))
		measure := attack.Measure(sc, exploretest.VectorMeasure(rng))

		oracle, err := explore.Engine{}.Run(context.Background(), explore.Request{
			Space: explore.NewSpace(exploretest.CopySpace(cfgs)), Measure: measure, Workers: 4,
		})
		if err != nil {
			t.Fatalf("%s: oracle: %v", sc.Name(), err)
		}
		cs := []explore.Constraint{
			throughputFloor(oracle, 0.5),
			exploretest.SurvivalFloor(rng, oracle),
		}
		want := exploretest.Reference(exploretest.CopySpace(cfgs), measure,
			scenario.MetricSurvival, cs, true).Render()
		for _, workers := range []int{1, 4, 8} {
			res, err := explore.Engine{}.Run(context.Background(), explore.Request{
				Space:       explore.NewSpace(exploretest.CopySpace(cfgs)),
				Measure:     measure,
				Metric:      scenario.MetricSurvival,
				Constraints: cs,
				Workers:     workers,
				Prune:       true,
			})
			if err != nil && !errors.Is(err, explore.ErrNoFeasible) {
				t.Fatalf("%s workers %d: %v", sc.Name(), workers, err)
			}
			if got := exploretest.RenderResult(res); got != want {
				t.Fatalf("%s: workers=%d diverges from oracle", sc.Name(), workers)
			}
		}
	}
}

// throughputFloor mirrors the explore-side helper: a monotone floor at
// the q-quantile of the measured throughput distribution.
func throughputFloor(res *explore.Result, q float64) explore.Constraint {
	vals := make([]float64, 0, len(res.Measurements))
	for _, m := range res.Measurements {
		vals = append(vals, m.Metrics.Throughput)
	}
	c := explore.BudgetConstraint("", vals[0])
	sorted := append([]float64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	c.Bound = sorted[int(q*float64(len(sorted)-1))]
	return c
}

// TestNamespaceSeparatesAttackRuns pins the memo-identity contract:
// attack-scored runs rescore every vector, so their namespace must
// never collide with the plain run's or another scenario's.
func TestNamespaceSeparatesAttackRuns(t *testing.T) {
	rop, _ := attack.ByName("rop-chain")
	leak, _ := attack.ByName("comp-leak")
	w := "redis-get90/240"
	if attack.Namespace(rop, w) == w {
		t.Fatal("attack namespace must differ from the workload's")
	}
	if attack.Namespace(rop, w) == attack.Namespace(leak, w) {
		t.Fatal("distinct scenarios must occupy distinct namespaces")
	}
}
