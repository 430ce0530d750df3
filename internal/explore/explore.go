// Package explore implements FlexOS' semi-automated design-space
// exploration (§5, §6.2): it generates configuration spaces (notably the
// paper's 80-configuration Redis/Nginx space — 5 compartmentalization
// strategies × 16 per-component hardening combinations — and the larger
// cross-application CrossAppSpace), orders them into the partial safety
// poset, measures their performance (the Wayfinder role), prunes
// measurement monotonically along safety paths, and extracts the safest
// configurations under a performance budget (the stars of Figure 8).
//
// Measurement runs through one engine: Engine.Run, which takes a
// context.Context and a Request — a worker pool fanning measurements
// across goroutines, memoization keyed by canonical configuration
// identity (Config.Key) so identical points within and across spaces
// are measured once, any number of simultaneous feasibility
// constraints (floors and ceilings on any metric), pruning that stays
// sound under concurrent completion by deciding a configuration only
// after all its poset predecessors are decided, and cooperative
// cancellation with a typed error set (ErrCanceled, ErrNoFeasible,
// MeasureError). Results are byte-identical for any worker count.
package explore

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"flexos/internal/core"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/machine"
	"flexos/internal/poset"
)

// Config is one point of the safety design space — a node of the poset.
type Config struct {
	// ID indexes the config within its generated space.
	ID int
	// Blocks is the compartmentalization strategy: Blocks[0] is the
	// default compartment (which also hosts the TCB); each further block
	// is its own compartment.
	Blocks [][]string
	// Hardening maps component name to its hardening set (Figure 6's
	// per-component toggles).
	Hardening map[string]harden.Set
	// Mechanism, GateMode and Sharing select the backend configuration.
	Mechanism string
	GateMode  isolation.GateMode
	Sharing   isolation.Sharing
	// ASLR is the image's layout-randomization level (zero value: off).
	// It joins the safety order as a product dimension: more entropy
	// and leak resistance are each independently safer.
	ASLR isolation.ASLR
	// Profile names the machine profile the image is built for ("" is
	// the default x86 profile). Configurations on different profiles
	// are incomparable — safety on one machine says nothing about
	// another — and measure under that profile's cost model.
	Profile string
}

// NumCompartments returns the number of compartments.
func (c *Config) NumCompartments() int { return len(c.Blocks) }

// blockOf returns the block index of a component, or -1.
func (c *Config) blockOf(comp string) int {
	for i, blk := range c.Blocks {
		for _, x := range blk {
			if x == comp {
				return i
			}
		}
	}
	return -1
}

// Components returns all components of the config, sorted.
func (c *Config) Components() []string {
	var out []string
	for _, blk := range c.Blocks {
		out = append(out, blk...)
	}
	sort.Strings(out)
	return out
}

// HardenedCount returns how many components have non-empty hardening.
func (c *Config) HardenedCount() int {
	n := 0
	for _, comp := range c.Components() {
		if !c.Hardening[comp].Empty() {
			n++
		}
	}
	return n
}

// Label renders a compact description, e.g.
// "redis+newlib/lwip h={lwip}".
func (c *Config) Label() string {
	var blocks []string
	for _, blk := range c.Blocks {
		blocks = append(blocks, strings.Join(blk, "+"))
	}
	var hardened []string
	for _, comp := range c.Components() {
		if !c.Hardening[comp].Empty() {
			hardened = append(hardened, comp)
		}
	}
	s := strings.Join(blocks, " / ")
	if len(hardened) > 0 {
		s += " h={" + strings.Join(hardened, ",") + "}"
	}
	if c.ASLR.Enabled() {
		s += " aslr=" + c.ASLR.String()
	}
	if c.Profile != "" {
		s += " @" + c.Profile
	}
	return s
}

// Spec materializes the config into a buildable image spec; tcbLibs
// (boot, memory manager) join the default compartment.
func (c *Config) Spec(tcbLibs []string) core.ImageSpec {
	spec := core.ImageSpec{
		Mechanism: c.Mechanism,
		GateMode:  c.GateMode,
		Sharing:   c.Sharing,
	}
	// A non-default machine profile threads its cost model into the
	// build, so every existing measurement path prices gates, traps and
	// copies under that machine. Unknown profile names keep the default
	// costs: Key still separates them, and the front-ends reject them
	// before a space is ever built.
	if c.Profile != "" {
		if p, err := machine.ParseProfile(c.Profile); err == nil {
			spec.Costs = p.Costs
		}
	}
	for i, blk := range c.Blocks {
		cs := core.CompSpec{Name: fmt.Sprintf("comp%d", i)}
		if i == 0 {
			cs.Libs = append(cs.Libs, tcbLibs...)
		}
		cs.Libs = append(cs.Libs, blk...)
		cs.LibHardening = make(map[string]harden.Set)
		for _, comp := range blk {
			if hs := c.Hardening[comp]; !hs.Empty() {
				cs.LibHardening[comp] = hs
			}
		}
		spec.Comps = append(spec.Comps, cs)
	}
	return spec
}

// Key returns the canonical identity of the configuration: two configs
// have equal keys exactly when they describe the same image and would
// measure identically on the deterministic machine. The key normalizes
// everything that does not change build semantics — mechanism aliases,
// component order within a block, the order of non-default blocks, and
// gate/sharing selections on single-compartment images (which build no
// gates at all). The ID is deliberately excluded: identity is semantic,
// which is what lets the engine memoize identical points across spaces.
func (c *Config) Key() string {
	var b strings.Builder
	b.WriteString("mech=")
	b.WriteString(isolation.Canonical(c.Mechanism))
	if c.NumCompartments() > 1 {
		fmt.Fprintf(&b, ";gate=%s;share=%s", c.GateMode, c.Sharing)
	}
	// Block 0 is positionally significant (it is the default compartment
	// and hosts the TCB); the remaining blocks are an unordered set.
	blocks := make([]string, 0, len(c.Blocks))
	for _, blk := range c.Blocks {
		s := append([]string(nil), blk...)
		sort.Strings(s)
		blocks = append(blocks, strings.Join(s, ","))
	}
	if len(blocks) > 1 {
		sort.Strings(blocks[1:])
	}
	b.WriteString(";blocks=")
	b.WriteString(strings.Join(blocks, "|"))
	b.WriteString(";harden=")
	for _, comp := range c.Components() {
		if hs := c.Hardening[comp]; !hs.Empty() {
			b.WriteString(comp)
			b.WriteString(":")
			b.WriteString(hs.String())
			b.WriteString(";")
		}
	}
	// The attack axes render only when set, so every pre-attack key —
	// and with it every persisted store record and canonical request
	// key — is byte-stable.
	if c.ASLR.Enabled() {
		b.WriteString(";aslr=")
		b.WriteString(c.ASLR.String())
	}
	if c.Profile != "" {
		b.WriteString(";profile=")
		b.WriteString(c.Profile)
	}
	return b.String()
}

// Hash returns a 64-bit FNV-1a digest of Key, for callers that want a
// fixed-width handle on a configuration's identity.
func (c *Config) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.Key()))
	return h.Sum64()
}

// Strength ranks the isolation mechanism.
func (c *Config) Strength() isolation.Strength { return isolation.StrengthOf(c.Mechanism) }

// SharingRank ranks the data sharing strategy's isolation: a fully
// shared stack (0) is weaker than DSS or stack-to-heap conversion (1),
// which share only the annotated variables.
func (c *Config) SharingRank() int {
	if c.NumCompartments() == 1 {
		return 1 // no cross-compartment stack data at all
	}
	if c.Sharing == isolation.ShareStack {
		return 0
	}
	return 1
}

// GateRank ranks the gate flavor: the light gate (0) shares registers
// and stacks, the full gate (1) isolates both.
func (c *Config) GateRank() int {
	if c.NumCompartments() == 1 {
		return 1
	}
	if c.GateMode == isolation.GateLight {
		return 0
	}
	return 1
}

// Leq reports whether a is probabilistically at most as safe as b — the
// partial order of §5, built from the paper's four monotonicity
// assumptions: safety increases with (1) the number of compartments
// (partition refinement), (2) data isolation, (3) stackable software
// hardening, and (4) the strength of the isolation mechanism.
func Leq(a, b *Config) bool {
	// Different machines are different safety universes: configurations
	// on distinct profiles never compare.
	if a.Profile != b.Profile {
		return false
	}
	// (4) mechanism strength.
	if a.Strength() > b.Strength() {
		return false
	}
	// ASLR joins as a product dimension: b must dominate on both
	// entropy and leak resistance.
	if !a.ASLR.Leq(b.ASLR) {
		return false
	}
	// (1) b's partition must refine a's: components together in b are
	// together in a.
	comps := a.Components()
	if !sameComponents(comps, b.Components()) {
		return false
	}
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			if b.blockOf(comps[i]) == b.blockOf(comps[j]) &&
				a.blockOf(comps[i]) != a.blockOf(comps[j]) {
				return false
			}
		}
	}
	// (3) per-component hardening must not shrink.
	for _, comp := range comps {
		if !a.Hardening[comp].Subset(b.Hardening[comp]) {
			return false
		}
	}
	// (2) data isolation (sharing strategy, gate flavor).
	if a.SharingRank() > b.SharingRank() || a.GateRank() > b.GateRank() {
		return false
	}
	return true
}

func sameComponents(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Poset builds the safety poset over a configuration space.
func Poset(cfgs []*Config) *poset.Poset[*Config] {
	return poset.New(cfgs, Leq)
}
