// Address-space layout randomization as an isolation dimension.
//
// FlexOS' safety ordering ranks mechanisms by an ordinal Strength; ASLR
// adds an orthogonal probabilistic axis: a compartment layout randomized
// with N bits of entropy forces an attacker to guess among 2^N placements
// before a ROP chain or absolute-address leak lands. Oreo (PAPERS.md)
// shows that this guarantee collapses under microarchitectural probing
// unless the mapping from virtual addresses to observable microarchitectural
// state is severed — which we model as the LeakResistant flag: without it,
// a probing attacker recovers half of the entropy bits before the attack
// proper starts.
package isolation

import (
	"fmt"
	"strconv"
	"strings"
)

// ASLR describes the address-space randomization applied to an image. The
// zero value means randomization is disabled.
type ASLR struct {
	// EntropyBits is the number of random bits in compartment placement
	// (0 = off). Real systems sit between 8 (32-bit mmap) and 28+ (64-bit
	// PIE); the explorer treats it as a ladder of discrete levels.
	EntropyBits int

	// LeakResistant marks Oreo-style masked layouts whose entropy
	// survives microarchitectural probing. Without it, EffectiveBits
	// degrades under a probing attacker.
	LeakResistant bool
}

// MaxEntropyBits bounds EntropyBits; beyond ~40 bits survival saturates
// at 1 and the parser rejects the value as implausible.
const MaxEntropyBits = 40

// Enabled reports whether any randomization is applied.
func (a ASLR) Enabled() bool { return a.EntropyBits > 0 }

// Leq is the product order over the ASLR axis: a ≤ b iff b has at least
// as much entropy and is at least as leak-resistant. It is the relation
// the grouped safety poset composes with partition refinement and
// hardening subsetting — incomparable pairs (more entropy, less
// resistance) stay incomparable, exactly like mixed hardening sets.
func (a ASLR) Leq(b ASLR) bool {
	return a.EntropyBits <= b.EntropyBits && (!a.LeakResistant || b.LeakResistant)
}

// EffectiveBits is the entropy an attacker of the given capability must
// still brute-force. Non-probing attackers face the full entropy; a
// probing attacker (Oreo's threat model) recovers half the bits of a
// non-leak-resistant layout through microarchitectural side channels.
// Integer arithmetic keeps the result exact on every platform.
func (a ASLR) EffectiveBits(probing bool) int {
	if a.EntropyBits <= 0 {
		return 0
	}
	if probing && !a.LeakResistant {
		return a.EntropyBits / 2
	}
	return a.EntropyBits
}

// String renders the axis in configuration syntax: "off", "16", or
// "16+leak" for a leak-resistant layout. ParseASLR inverts it.
func (a ASLR) String() string {
	if !a.Enabled() {
		return "off"
	}
	s := strconv.Itoa(a.EntropyBits)
	if a.LeakResistant {
		s += "+leak"
	}
	return s
}

// ParseASLR parses the configuration syntax accepted for the aslr axis:
// "" and "off" disable it, "N" enables N entropy bits, "N+leak" adds
// leak resistance. It round-trips with String.
func ParseASLR(s string) (ASLR, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" || t == "off" || t == "none" {
		return ASLR{}, nil
	}
	leak := false
	if rest, ok := strings.CutSuffix(t, "+leak"); ok {
		leak = true
		t = rest
	}
	bits, err := strconv.Atoi(t)
	if err != nil {
		return ASLR{}, fmt.Errorf("isolation: bad aslr spec %q (want \"off\", \"N\" or \"N+leak\")", s)
	}
	if bits < 0 || bits > MaxEntropyBits {
		return ASLR{}, fmt.Errorf("isolation: aslr entropy %d out of range [0,%d]", bits, MaxEntropyBits)
	}
	if bits == 0 && leak {
		return ASLR{}, fmt.Errorf("isolation: aslr spec %q: leak resistance requires entropy bits", s)
	}
	return ASLR{EntropyBits: bits, LeakResistant: leak}, nil
}
