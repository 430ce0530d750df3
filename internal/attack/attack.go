// Package attack scores FlexOS configurations by their probability of
// surviving named attack classes, turning the safety axis of the Pareto
// front from an ordinal level into survival against concrete threats.
//
// Three attack workloads are modeled, following the threats PAPERS.md
// names: ROP-chain construction (gadget supply scales with compartment
// size and the machine profile's gadget density — compressed-ISA RISC-V
// decodes far more unintended gadgets), address probing (Oreo's threat
// model: ASLR entropy collapses under microarchitectural probing unless
// the layout is leak-resistant), and cross-compartment data leak
// (defeated primarily by mechanism strength and data-isolation policy).
// A fourth scenario, "combined", requires surviving all three.
//
// The scoring model is analytical and deterministic — see DESIGN §12.
// Every factor is a plain IEEE 754 product, composed in a fixed order,
// with powers of two computed exactly via math.Ldexp; no transcendental
// functions, no map iteration, no randomness. Two properties are load-
// bearing and property-tested against a brute-force oracle:
//
//   - Determinism: Survival(c) is a pure function of Config identity
//     (equal Config.Key ⇒ bit-equal survival) on every platform.
//   - Monotonicity: Survival is non-decreasing along the safety order —
//     if explore.Leq(a, b), then Survival(a) <= Survival(b). Each factor
//     is monotone in exactly the dimension Leq orders, so safer
//     configurations never score worse.
package attack

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"flexos/internal/explore"
	"flexos/internal/harden"
	"flexos/internal/machine"
	"flexos/internal/scenario"
)

// Scenario is one attack workload: a parameterized attacker whose
// per-component success probability the survival score inverts.
type Scenario struct {
	name string
	desc string

	// probing marks attackers with microarchitectural probing
	// capability (Oreo's model): non-leak-resistant ASLR loses half its
	// entropy bits to them before the attack proper starts.
	probing bool

	// log2Attempts is the attacker's guess budget against layout
	// randomization, as a power of two: the chance of landing a guess
	// is min(1, 2^(log2Attempts - effectiveBits)) — exact in binary
	// floating point.
	log2Attempts int

	// base is the attacker's success probability against a completely
	// undefended single compartment. Strictly below 1, so survival is
	// always positive.
	base float64

	// mitigation maps each hardening technique to the factor it applies
	// to the success probability (1 = no effect). Composed in allTechs
	// order.
	mitigation [len(allTechs)]float64

	// mech is the success factor per isolation.Strength (None,
	// IntraAS, InterAS); non-increasing.
	mech [3]float64

	// share and gate apply when the configuration's data-sharing /
	// gate-flavor rank is 1 (the safer rank); both <= 1.
	share, gate float64

	// gadgets scales the attack surface by the machine profile's
	// gadget density (ROP cares; probing and leaking do not).
	gadgets bool

	// parts, for composite scenarios, are the sub-scenarios whose
	// survivals multiply (surviving the combined attacker means
	// surviving every part).
	parts []*Scenario
}

// Name identifies the scenario ("rop-chain", ...).
func (s *Scenario) Name() string { return s.name }

// Description is the one-line human summary.
func (s *Scenario) Description() string { return s.desc }

// allTechs fixes the mitigation composition order. Floating-point
// products are order-sensitive; this order is part of the determinism
// contract.
var allTechs = [...]harden.Tech{harden.CFI, harden.KASan, harden.UBSan, harden.StackProtector, harden.ShadowStack}

// The shipped attack library.
var (
	ropChain = &Scenario{
		name:         "rop-chain",
		desc:         "construct a ROP chain from the victim compartment's gadget supply",
		probing:      false,
		log2Attempts: 10,
		base:         0.95,
		mitigation:   [...]float64{0.25, 0.95, 1.0, 0.85, 0.30}, // cfi, kasan, ubsan, sp, shadowstack
		mech:         [...]float64{1.0, 0.6, 0.35},
		share:        0.80,
		gate:         0.85,
		gadgets:      true,
	}
	addrProbe = &Scenario{
		name:         "addr-probe",
		desc:         "derandomize the layout by microarchitectural address probing",
		probing:      true,
		log2Attempts: 16,
		base:         0.90,
		mitigation:   [...]float64{0.95, 0.50, 0.90, 1.0, 0.95},
		mech:         [...]float64{1.0, 0.7, 0.45},
		share:        0.85,
		gate:         0.90,
	}
	compLeak = &Scenario{
		name:         "comp-leak",
		desc:         "exfiltrate another compartment's data through shared state",
		probing:      true,
		log2Attempts: 8,
		base:         0.85,
		mitigation:   [...]float64{0.90, 0.70, 0.85, 0.95, 0.90},
		mech:         [...]float64{1.0, 0.5, 0.25},
		share:        0.70,
		gate:         0.80,
	}
	combined = &Scenario{
		name:  "combined",
		desc:  "survive rop-chain, addr-probe and comp-leak simultaneously",
		parts: []*Scenario{ropChain, addrProbe, compLeak},
	}
)

var registry = map[string]*Scenario{
	ropChain.name:  ropChain,
	addrProbe.name: addrProbe,
	compLeak.name:  compLeak,
	combined.name:  combined,
}

// ByName resolves an attack scenario identifier.
func ByName(name string) (*Scenario, bool) {
	s, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	return s, ok
}

// All returns the shipped attack library, sorted by name.
func All() []*Scenario {
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Names lists the scenario names for error messages and help text.
func Names() string {
	var out []string
	for _, s := range All() {
		out = append(out, s.name)
	}
	return strings.Join(out, "|")
}

// round6 quantizes a survival probability to six decimals — the report
// rendering granularity — with the exact-multiplication rounding the
// determinism contract allows. It is monotone, so quantization never
// reorders two survivals.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// Survival returns the configuration's probability of surviving this
// attack scenario, in (0,1]. The score is the weakest-link inversion of
// the per-component attack success: an image falls if any of its
// components falls.
func (s *Scenario) Survival(c *explore.Config) float64 {
	if len(s.parts) > 0 {
		p := 1.0
		for _, part := range s.parts {
			p *= part.survivalRaw(c)
		}
		return round6(p)
	}
	return round6(s.survivalRaw(c))
}

// survivalRaw is Survival before quantization, so composite scenarios
// multiply unrounded parts.
func (s *Scenario) survivalRaw(c *explore.Config) float64 {
	density := 1.0
	if s.gadgets && c.Profile != "" {
		if p, err := machine.ParseProfile(c.Profile); err == nil {
			density = p.GadgetDensity
		}
	}
	// Shared per-image factors: mechanism strength, data-sharing and
	// gate ranks (rank 1 is the safer one and earns the <1 factor),
	// and the attacker's chance against layout randomization.
	img := s.mech[c.Strength()]
	if c.SharingRank() == 1 {
		img *= s.share
	}
	if c.GateRank() == 1 {
		img *= s.gate
	}
	aslr := math.Ldexp(1, s.log2Attempts-c.ASLR.EffectiveBits(s.probing))
	if aslr > 1 {
		aslr = 1
	}
	img *= aslr

	// The weakest link is a maximum, so components are visited in block
	// order; a configuration without components survives (worst is 0).
	n := 0
	for _, blk := range c.Blocks {
		n += len(blk)
	}
	total := float64(n)
	worst := 0.0
	for _, blk := range c.Blocks {
		for _, comp := range blk {
			// Surface: the fraction of the image reachable inside its
			// compartment — partition refinement shrinks it — scaled
			// by the profile's gadget supply for ROP attackers.
			surface := float64(len(blk)) / total * density
			if surface > 1 {
				surface = 1
			}
			succ := s.base * surface * img
			hs := c.Hardening[comp]
			for i, t := range allTechs {
				if hs.Has(t) {
					succ *= s.mitigation[i]
				}
			}
			if succ > worst {
				worst = succ
			}
		}
	}
	if worst > 1 {
		worst = 1
	}
	return 1 - worst
}

// Measure wraps a base measure function so every vector carries the
// scenario's survival score alongside its performance metrics.
//
// Configurations with equal Config.ImageKey (the ASLR siblings of one
// point) build the same image, so the wrapper calls base once per
// image key: the first caller runs it, later ones wait for its result,
// and each scores its own Survival. A base error reaches every
// configuration of that image. The cache lives as long as the returned
// function; build one per query. base must depend only on the built
// image (c.Spec), never on c.ASLR. The wrapped function stays
// deterministic and concurrency-safe whenever the base is.
func Measure(s *Scenario, base func(*explore.Config) (scenario.Metrics, error)) func(*explore.Config) (scenario.Metrics, error) {
	type image struct {
		done    chan struct{}
		metrics scenario.Metrics
		err     error
	}
	var mu sync.Mutex
	images := make(map[string]*image)
	return func(c *explore.Config) (scenario.Metrics, error) {
		key := c.ImageKey()
		mu.Lock()
		img, ok := images[key]
		if !ok {
			img = &image{done: make(chan struct{})}
			images[key] = img
		}
		mu.Unlock()
		if ok {
			<-img.done
		} else {
			img.metrics, img.err = base(c)
			close(img.done)
		}
		if img.err != nil {
			return img.metrics, img.err
		}
		m := img.metrics
		m.Survival = s.Survival(c)
		return m, nil
	}
}

// Namespace is the memo/canonical-key namespace for an attack-scored
// run: attack scenarios rescore every vector, so they must never share
// memo entries with the plain performance run of the same workload.
func Namespace(s *Scenario, workload string) string {
	return fmt.Sprintf("attack/%s@%s", s.name, workload)
}
