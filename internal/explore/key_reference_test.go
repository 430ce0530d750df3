package explore_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/explore/exploretest"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/synth"
)

// referenceKey is the canonical key as it was first written: a sorted
// copy and a join per block, the non-default blocks sorted as joined
// strings, and a separately sorted component list for the hardening
// segment. Store segments, request keys and goldens pin these bytes,
// so it is the oracle Config.Key and Config.ImageKey are held to.
func referenceKey(c *explore.Config, withASLR bool) string {
	var b strings.Builder
	b.WriteString("mech=")
	b.WriteString(isolation.Canonical(c.Mechanism))
	if c.NumCompartments() > 1 {
		fmt.Fprintf(&b, ";gate=%s;share=%s", c.GateMode, c.Sharing)
	}
	blocks := make([]string, 0, len(c.Blocks))
	var comps []string
	for _, blk := range c.Blocks {
		s := append([]string(nil), blk...)
		sort.Strings(s)
		blocks = append(blocks, strings.Join(s, ","))
		comps = append(comps, blk...)
	}
	if len(blocks) > 1 {
		sort.Strings(blocks[1:])
	}
	b.WriteString(";blocks=")
	b.WriteString(strings.Join(blocks, "|"))
	b.WriteString(";harden=")
	sort.Strings(comps)
	for _, comp := range comps {
		if hs := c.Hardening[comp]; !hs.Empty() {
			b.WriteString(comp)
			b.WriteString(":")
			b.WriteString(hs.String())
			b.WriteString(";")
		}
	}
	if withASLR && c.ASLR.Enabled() {
		b.WriteString(";aslr=")
		b.WriteString(c.ASLR.String())
	}
	if c.Profile != "" {
		b.WriteString(";profile=")
		b.WriteString(c.Profile)
	}
	return b.String()
}

// keyEdgeCases are hand-built shapes the generated spaces never make:
// empty blocks, one block per component (more blocks than any space
// holds, in reverse name order, with names that sort differently
// alone and joined), and single-block images, which render no gate or
// sharing segment.
func keyEdgeCases() []*explore.Config {
	hs := map[string]harden.Set{
		"a":  harden.NewSet(harden.CFI),
		"a+": harden.NewSet(harden.KASan, harden.ShadowStack),
		"c7": harden.NewSet(harden.UBSan),
	}
	aslr := isolation.ASLR{EntropyBits: 12, LeakResistant: true}
	var ten []string
	for i := 9; i >= 0; i-- {
		ten = append(ten, fmt.Sprintf("c%d", i))
	}
	var single [][]string
	for _, comp := range ten {
		single = append(single, []string{comp})
	}
	return []*explore.Config{
		{Blocks: [][]string{{"b", "a"}, {}}, Hardening: hs, Mechanism: "intel-mpk"},
		{Blocks: [][]string{{}, {"z", "a"}, {}}, Mechanism: "vm-ept", GateMode: isolation.GateLight},
		{Blocks: [][]string{{}}, Mechanism: "none"},
		{Blocks: nil, Hardening: hs},
		{Blocks: single, Hardening: hs, Mechanism: "mpk", Sharing: isolation.ShareHeap, ASLR: aslr, Profile: "riscv"},
		{Blocks: [][]string{{"x"}, {"a", "z"}, {"a+"}, {"a"}}, Hardening: hs, Mechanism: "cheri", Sharing: isolation.ShareStack},
		{Blocks: [][]string{ten}, Hardening: hs, GateMode: isolation.GateFull, Sharing: isolation.ShareStack, ASLR: aslr},
		{Blocks: [][]string{{"c7", "a"}}, Hardening: hs, Mechanism: "intel-sgx", Profile: "riscv"},
	}
}

// TestKeyMatchesReferenceKey holds Key and ImageKey to referenceKey on
// every shipped space, random plain and attack spaces, the 10k-point
// synthetic space and the hand-built edge cases.
func TestKeyMatchesReferenceKey(t *testing.T) {
	corpus := exploretest.ShippedSpaces()
	for seed := int64(1); seed <= 20; seed++ {
		corpus[fmt.Sprintf("random/%d", seed)] = exploretest.RandomSpace(rand.New(rand.NewSource(seed)), 120)
		corpus[fmt.Sprintf("random-attack/%d", seed)] = exploretest.RandomAttackSpace(rand.New(rand.NewSource(seed)), 120)
	}
	corpus["synth/42"] = synth.Space(42, 10000)
	corpus["edge"] = keyEdgeCases()
	n := 0
	for name, cfgs := range corpus {
		for i, c := range cfgs {
			if got, want := c.Key(), referenceKey(c, true); got != want {
				t.Fatalf("%s[%d]: Key %q, want %q", name, i, got, want)
			}
			if got, want := c.ImageKey(), referenceKey(c, false); got != want {
				t.Fatalf("%s[%d]: ImageKey %q, want %q", name, i, got, want)
			}
			n++
		}
	}
	t.Logf("%d configurations", n)
}
