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
	"bytes"
	"fmt"
	"slices"
	"strings"

	"flexos/internal/core"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/machine"
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

// placed is one component of a configuration's canonical layout: its
// name, the index of the block that holds it, and its hardening.
type placed struct {
	name  string
	block int
	hs    harden.Set
}

// layout returns the configuration's canonical form: every component,
// sorted by name, with its block and hardening. It is the one place
// that orders a configuration's components; the key, the safety
// order's signature and Components all read it.
func (c *Config) layout() []placed {
	n := 0
	for _, blk := range c.Blocks {
		n += len(blk)
	}
	l := make([]placed, 0, n)
	for b, blk := range c.Blocks {
		for _, comp := range blk {
			l = append(l, placed{comp, b, c.Hardening[comp]})
		}
	}
	slices.SortFunc(l, func(x, y placed) int { return strings.Compare(x.name, y.name) })
	return l
}

// Components returns all components of the config, sorted.
func (c *Config) Components() []string {
	var out []string
	for _, p := range c.layout() {
		out = append(out, p.name)
	}
	return out
}

// HardenedCount returns how many components have non-empty hardening.
func (c *Config) HardenedCount() int {
	n := 0
	for _, p := range c.layout() {
		if !p.hs.Empty() {
			n++
		}
	}
	return n
}

// Label renders a compact description, e.g.
// "redis+newlib/lwip h={lwip}".
func (c *Config) Label() string {
	var b strings.Builder
	b.Grow(64)
	for i, blk := range c.Blocks {
		if i > 0 {
			b.WriteString(" / ")
		}
		for j, comp := range blk {
			if j > 0 {
				b.WriteByte('+')
			}
			b.WriteString(comp)
		}
	}
	sep := " h={"
	for _, p := range c.layout() {
		if !p.hs.Empty() {
			b.WriteString(sep)
			b.WriteString(p.name)
			sep = ","
		}
	}
	if sep == "," {
		b.WriteByte('}')
	}
	if c.ASLR.Enabled() {
		b.WriteString(" aslr=")
		b.WriteString(c.ASLR.String())
	}
	if c.Profile != "" {
		b.WriteString(" @")
		b.WriteString(c.Profile)
	}
	return b.String()
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
func (c *Config) Key() string { return c.key(true) }

// ImageKey returns the canonical identity of the image Spec builds:
// Key without its ASLR segment. Spec drops ASLR — layout randomization
// changes what an attacker can reach, not what the program does — so
// configurations that differ only in ASLR share an image key and
// simulate identically.
func (c *Config) ImageKey() string { return c.key(false) }

// key renders the canonical key, with the ASLR segment when withASLR
// is set. Key and ImageKey share it so the two cannot drift.
func (c *Config) key(withASLR bool) string {
	l := c.layout()
	var buf [256]byte
	b := append(buf[:0], "mech="...)
	b = append(b, isolation.Canonical(c.Mechanism)...)
	if c.NumCompartments() > 1 {
		b = append(append(b, ";gate="...), c.GateMode.String()...)
		b = append(append(b, ";share="...), c.Sharing.String()...)
	}
	// Each block lists its members in layout order. Block 0 is
	// positionally significant (it is the default compartment and hosts
	// the TCB); the remaining blocks are an unordered set, sorted by
	// their rendering, so each renders into text first: every member
	// after a comma, the block's span starting past the first one.
	var textBuf [128]byte
	var spanBuf [8][2]int
	text, spans := textBuf[:0], spanBuf[:0]
	for blk := range c.Blocks {
		start := len(text)
		for _, p := range l {
			if p.block == blk {
				text = append(append(text, ','), p.name...)
			}
		}
		spans = append(spans, [2]int{min(start+1, len(text)), len(text)})
	}
	if len(spans) > 1 {
		slices.SortFunc(spans[1:], func(x, y [2]int) int {
			return bytes.Compare(text[x[0]:x[1]], text[y[0]:y[1]])
		})
	}
	b = append(b, ";blocks="...)
	for i, sp := range spans {
		if i > 0 {
			b = append(b, '|')
		}
		b = append(b, text[sp[0]:sp[1]]...)
	}
	b = append(b, ";harden="...)
	for _, p := range l {
		if !p.hs.Empty() {
			b = append(append(append(append(b, p.name...), ':'), p.hs.String()...), ';')
		}
	}
	// The attack axes render only when set, so every pre-attack key —
	// and with it every persisted store record and canonical request
	// key — is byte-stable.
	if withASLR && c.ASLR.Enabled() {
		b = append(append(b, ";aslr="...), c.ASLR.String()...)
	}
	if c.Profile != "" {
		b = append(append(b, ";profile="...), c.Profile...)
	}
	return string(b)
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
