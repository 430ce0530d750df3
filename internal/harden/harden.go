// Package harden models FlexOS' per-compartment software hardening (§4.5):
// control-flow integrity (CFI), the kernel address sanitizer (KASan),
// undefined-behaviour sanitization (UBSan) and the stack protector.
//
// Each technique contributes two things to the simulation:
//
//   - a functional check implemented elsewhere (KASan redzones in
//     internal/mem, canaries in internal/sched, gate entry-point checks in
//     internal/isolation);
//   - a compute-cost multiplier applied to the instrumented compartment's
//     work, which is what Figure 6 varies per component.
//
// Because FlexOS gives every compartment its own allocator, hardening is
// appliable per compartment: isolating unhardened components from hardened
// ones preserves the hardened components' guarantees.
package harden

import (
	"fmt"
	"sort"
	"strings"
)

// Tech is a software hardening technique.
type Tech uint8

const (
	// CFI is fine-grained control-flow integrity instrumentation
	// (forward-edge checks on indirect calls).
	CFI Tech = 1 << iota
	// KASan is the kernel address sanitizer: redzones, quarantine and
	// shadow checks on every memory access.
	KASan
	// UBSan instruments arithmetic and pointer operations for undefined
	// behaviour.
	UBSan
	// StackProtector places canaries below stack frames, verified on
	// return.
	StackProtector
	// ShadowStack keeps a protected copy of return addresses and checks
	// it on every return (backward-edge CFI). Together with CFI's
	// forward-edge checks it closes the control-flow graph against ROP.
	ShadowStack
)

// All is the full hardening stack the paper's Figure 6 toggles per
// component (stack protector, UBSan and KASan).
const All = KASan | UBSan | StackProtector

// names maps configuration-file names to techniques. "asan" is accepted as
// an alias for kasan, matching the paper's example configuration.
var names = map[string]Tech{
	"cfi":             CFI,
	"kasan":           KASan,
	"asan":            KASan,
	"ubsan":           UBSan,
	"stackprotector":  StackProtector,
	"stack-protector": StackProtector,
	"shadowstack":     ShadowStack,
	"shadow-stack":    ShadowStack,
}

// multipliers is the compute-cost factor of each technique, calibrated so
// that the full stack roughly doubles a component's compute time — which
// places the hardening effects of Figure 6 (e.g. ~24% for the scheduler,
// ~42% for the Redis application code) at the right magnitude given the
// per-component work split.
var multipliers = map[Tech]float64{
	CFI:            1.10,
	KASan:          1.85,
	UBSan:          1.26,
	StackProtector: 1.05,
	ShadowStack:    1.07,
}

// allTechs is the fixed iteration order for multiplier composition and
// set enumeration. Floating-point products are order-sensitive, so
// WorkMultiplier must never iterate the multipliers map directly: map
// order varies between runs and would break byte-identical reports.
var allTechs = [...]Tech{CFI, KASan, UBSan, StackProtector, ShadowStack}

// Set is a set of hardening techniques applied to one compartment.
type Set struct {
	mask Tech
}

// NewSet builds a set from techniques.
func NewSet(techs ...Tech) Set {
	var s Set
	for _, t := range techs {
		s.mask |= t
	}
	return s
}

// Parse builds a set from configuration-file names ("cfi", "asan", ...).
func Parse(nameList []string) (Set, error) {
	var s Set
	for _, n := range nameList {
		t, ok := names[strings.ToLower(strings.TrimSpace(n))]
		if !ok {
			return Set{}, fmt.Errorf("harden: unknown hardening %q", n)
		}
		s.mask |= t
	}
	return s, nil
}

// Has reports whether the set includes t.
func (s Set) Has(t Tech) bool { return s.mask&t == t }

// Empty reports whether no hardening is enabled.
func (s Set) Empty() bool { return s.mask == 0 }

// With returns a copy of s with t enabled.
func (s Set) With(t Tech) Set { return Set{mask: s.mask | t} }

// Union returns the union of two sets.
func (s Set) Union(o Set) Set { return Set{mask: s.mask | o.mask} }

// Subset reports whether s ⊆ o — the relation the partial safety ordering
// uses ("stackable software hardening", §5).
func (s Set) Subset(o Set) bool { return s.mask&^o.mask == 0 }

// Equal reports set equality.
func (s Set) Equal(o Set) bool { return s.mask == o.mask }

// Count returns the number of enabled techniques.
func (s Set) Count() int {
	n := 0
	for _, t := range allTechs {
		if s.Has(t) {
			n++
		}
	}
	return n
}

// WorkMultiplier returns the combined compute-cost factor of the enabled
// techniques (multiplicative composition, matching how sanitizer overheads
// stack in practice).
func (s Set) WorkMultiplier() float64 {
	m := 1.0
	for _, t := range allTechs {
		if s.Has(t) {
			m *= multipliers[t]
		}
	}
	return m
}

// String renders the set in configuration syntax, deterministically
// ordered. Techniques outside the five known ones are not rendered.
func (s Set) String() string { return setNames[s.mask&(1<<len(allTechs)-1)] }

// setNames holds String's result for each of the 32 masks of the known
// techniques, rendered once: the exploration engine keys every
// configuration of every space by it.
var setNames = func() (t [1 << len(allTechs)]string) {
	techNames := map[Tech]string{
		CFI: "cfi", KASan: "kasan", UBSan: "ubsan",
		StackProtector: "stackprotector", ShadowStack: "shadowstack",
	}
	for mask := range t {
		var out []string
		for _, tech := range allTechs {
			if Tech(mask)&tech != 0 {
				out = append(out, techNames[tech])
			}
		}
		sort.Strings(out)
		t[mask] = "[" + strings.Join(out, ",") + "]"
	}
	return t
}()

// CheckedAdd performs an int64 addition with UBSan-style overflow
// detection: when the set enables UBSan, overflow returns an error instead
// of wrapping. It is the arithmetic helper instrumented code paths use.
func (s Set) CheckedAdd(a, b int64) (int64, error) {
	c := a + b
	if s.Has(UBSan) {
		if (b > 0 && c < a) || (b < 0 && c > a) {
			return 0, fmt.Errorf("harden: ubsan: signed integer overflow %d + %d", a, b)
		}
	}
	return c, nil
}

// CheckedMul is CheckedAdd's multiplication counterpart.
func (s Set) CheckedMul(a, b int64) (int64, error) {
	c := a * b
	if s.Has(UBSan) && a != 0 && c/a != b {
		return 0, fmt.Errorf("harden: ubsan: signed integer overflow %d * %d", a, b)
	}
	return c, nil
}
