package attack

import (
	"fmt"
	"strings"

	"flexos/internal/explore"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/machine"
)

// Spec is a parsed attack-axis configuration: which attacker to score
// against, which machine profile to build for, and — optionally — a
// pinned ASLR level. When no level is pinned, Space sweeps the Ladder.
type Spec struct {
	// Scenario is the canonical attack scenario name.
	Scenario string
	// Profile is the canonical machine profile ("" = default x86).
	Profile string
	// ASLR is the pinned randomization level; meaningful only when
	// PinASLR is set.
	ASLR isolation.ASLR
	// PinASLR pins every configuration to ASLR instead of sweeping.
	PinASLR bool
}

// String renders the spec in its canonical configuration syntax:
// "scenario", "scenario@profile", "scenario;aslr=16+leak" or the
// combination. ParseConfig is its inverse, and parsing a canonical
// rendering is the identity — the key-stability property the fuzz
// harness pins.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Scenario)
	if s.Profile != "" {
		b.WriteString("@")
		b.WriteString(s.Profile)
	}
	if s.PinASLR {
		b.WriteString(";aslr=")
		b.WriteString(s.ASLR.String())
	}
	return b.String()
}

// ParseConfig parses the attack-axis configuration syntax:
//
//	scenario[@profile][;aslr=off|N|N+leak]
//
// e.g. "rop-chain", "addr-probe@riscv", "combined@riscv;aslr=16+leak".
// Scenario and profile names canonicalize (so "combined@x86" and
// "combined" yield identical specs); malformed input returns an error,
// never a panic.
func ParseConfig(in string) (Spec, error) {
	var spec Spec
	rest := strings.TrimSpace(in)
	if rest == "" {
		return Spec{}, fmt.Errorf("attack: empty attack spec")
	}
	head, opts, hasOpts := strings.Cut(rest, ";")
	name, prof, hasProf := strings.Cut(head, "@")
	sc, ok := ByName(name)
	if !ok {
		return Spec{}, fmt.Errorf("attack: unknown attack scenario %q (want %s)", name, Names())
	}
	spec.Scenario = sc.Name()
	if hasProf {
		canon, err := machine.CanonicalProfile(prof)
		if err != nil {
			return Spec{}, fmt.Errorf("attack: spec %q: %w", in, err)
		}
		spec.Profile = canon
	}
	if hasOpts {
		for _, opt := range strings.Split(opts, ";") {
			k, v, hasV := strings.Cut(opt, "=")
			if strings.TrimSpace(k) != "aslr" || !hasV || strings.TrimSpace(v) == "" {
				return Spec{}, fmt.Errorf("attack: spec %q: unknown option %q (only \"aslr=off|N|N+leak\" is accepted)", in, opt)
			}
			a, err := isolation.ParseASLR(v)
			if err != nil {
				return Spec{}, fmt.Errorf("attack: spec %q: %w", in, err)
			}
			spec.ASLR = a
			spec.PinASLR = true
		}
	}
	return spec, nil
}

// Ladder is the ASLR sweep attack spaces expand over when the spec pins
// no level: off, 16 bits of plain entropy, and 16 leak-resistant bits
// (the Oreo point — same entropy, probing-proof).
var Ladder = []isolation.ASLR{
	{},
	{EntropyBits: 16},
	{EntropyBits: 16, LeakResistant: true},
}

// controlFlowVariants are the uniform hardening additions the attack
// space crosses with the base space: nothing, forward-edge CFI, a
// shadow stack, and both. Together with the ASLR ladder this gives the
// poset genuinely new safety dimensions to order (CFI ⊂ CFI+SS, off ≤
// 16 ≤ 16+leak) rather than just rescoring old points.
var controlFlowVariants = []harden.Set{
	harden.NewSet(),
	harden.NewSet(harden.CFI),
	harden.NewSet(harden.ShadowStack),
	harden.NewSet(harden.CFI, harden.ShadowStack),
}

// Stamp returns a copy of the space with every configuration pinned to
// the given machine profile and — when pin is set — the given ASLR
// level, without expanding it. It is the non-attack path of the
// -profile / -aslr front-end flags: the stamped keys (and with them the
// memo and canonical request keys) separate from the unstamped run's.
func Stamp(base []*explore.Config, profile string, a isolation.ASLR, pin bool) []*explore.Config {
	out := make([]*explore.Config, len(base))
	for i, c := range base {
		n := *c
		n.Profile = profile
		if pin {
			n.ASLR = a
		}
		out[i] = &n
	}
	return out
}

// Space expands a base configuration space along the attack axes: every
// base point is stamped with the spec's machine profile and crossed
// with the ASLR ladder (or pinned level) and the control-flow hardening
// variants. IDs are renumbered sequentially; expansion order is
// deterministic (base order, then ladder, then variant), so the
// resulting space — and every report over it — is byte-stable.
func Space(base []*explore.Config, spec Spec) []*explore.Config {
	ladder := Ladder
	if spec.PinASLR {
		ladder = []isolation.ASLR{spec.ASLR}
	}
	out := make([]*explore.Config, 0, len(base)*len(ladder)*len(controlFlowVariants))
	for _, c := range base {
		for _, a := range ladder {
			for _, extra := range controlFlowVariants {
				n := *c
				n.ID = len(out)
				n.Profile = spec.Profile
				n.ASLR = a
				if !extra.Empty() {
					hs := make(map[string]harden.Set, len(c.Hardening))
					for k, v := range c.Hardening {
						hs[k] = v
					}
					for _, blk := range c.Blocks {
						for _, comp := range blk {
							hs[comp] = hs[comp].Union(extra)
						}
					}
					n.Hardening = hs
				}
				out = append(out, &n)
			}
		}
	}
	return out
}
