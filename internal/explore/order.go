package explore

import (
	"sort"
	"strings"
	"sync"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/poset"
)

// sig is a precomputed comparison signature for one configuration: the
// inputs Leq reads, extracted once so the safety order can be evaluated
// allocation-free. Component names are sorted; block and hs align with
// comps positionally. Signatures of configurations with different
// component sets are never compared (such configurations are
// incomparable — Leq requires identical component sets), and neither are
// signatures of configurations on different machine profiles (the group
// key separates them).
type sig struct {
	comps    []string
	block    []int16
	hs       []harden.Set
	strength isolation.Strength
	share    int8
	gate     int8
	aslr     isolation.ASLR
}

// leqSig mirrors Leq exactly for two configurations with identical
// sorted component sets: mechanism strength, partition refinement,
// per-component hardening subset, data-isolation ranks. It allocates
// nothing, which is what makes building 10k–1M-point safety orders
// practical (the allocating Leq costs ~350ns/pair; this costs ~20ns).
func leqSig(a, b *sig) bool {
	if a.strength > b.strength {
		return false
	}
	if !a.aslr.Leq(b.aslr) {
		return false
	}
	nc := len(a.comps)
	for i := 0; i < nc; i++ {
		for j := i + 1; j < nc; j++ {
			if b.block[i] == b.block[j] && a.block[i] != a.block[j] {
				return false
			}
		}
	}
	for k := 0; k < nc; k++ {
		if !a.hs[k].Subset(b.hs[k]) {
			return false
		}
	}
	return !(a.share > b.share || a.gate > b.gate)
}

// spaceOrder is the engine's view of a configuration space's safety
// structure: per-configuration comparison signatures, the partition of
// the space into mutually incomparable component groups, and one small
// poset per group. Real cross-application spaces decompose into many
// groups of bounded size (one per application × component set), so the
// safety order of an n-point space costs Σ group² signature
// comparisons instead of the n² allocating Leq evaluations a global
// poset would — the difference between 30s and 30ms of setup on a
// 10k-point space.
type spaceOrder struct {
	n      int
	sigs   []sig
	groups [][]int32             // member indices per group, ascending
	posets []*poset.Poset[int32] // one per group, over global indices

	edgesOnce    sync.Once
	preds, succs [][]int32 // Hasse edges of the whole space, global indices
}

// newSpaceOrder builds signatures, groups and per-group posets.
func newSpaceOrder(cfgs []*Config) *spaceOrder {
	n := len(cfgs)
	o := &spaceOrder{n: n, sigs: make([]sig, n)}
	// Arena-allocate the positional columns: two allocations for the
	// whole space instead of two per configuration.
	blockArena := make([]int16, 0, 4*n)
	hsArena := make([]harden.Set, 0, 4*n)
	byComps := make(map[string]int32, n/16+1)
	for i, c := range cfgs {
		comps := c.Components()
		s := &o.sigs[i]
		s.comps = comps
		s.strength = c.Strength()
		s.share = int8(c.SharingRank())
		s.gate = int8(c.GateRank())
		s.aslr = c.ASLR
		b0, h0 := len(blockArena), len(hsArena)
		for _, comp := range comps {
			blockArena = append(blockArena, int16(c.blockOf(comp)))
			hsArena = append(hsArena, c.Hardening[comp])
		}
		s.block = blockArena[b0:len(blockArena):len(blockArena)]
		s.hs = hsArena[h0:len(hsArena):len(hsArena)]

		// Distinct machine profiles are incomparable universes (Leq
		// returns false across them), so they partition into separate
		// groups; "\x01" cannot appear in a component name or profile,
		// keeping the key unambiguous.
		key := strings.Join(comps, "\x00") + "\x01" + c.Profile
		g, ok := byComps[key]
		if !ok {
			g = int32(len(o.groups))
			byComps[key] = g
			o.groups = append(o.groups, nil)
		}
		o.groups[g] = append(o.groups[g], int32(i))
	}
	o.posets = make([]*poset.Poset[int32], len(o.groups))
	for g, members := range o.groups {
		o.posets[g] = poset.New(members, func(a, b int32) bool {
			return leqSig(&o.sigs[a], &o.sigs[b])
		})
	}
	return o
}

// edges returns the Hasse diagram of the whole space as predecessor and
// successor adjacency lists over global indices. Configurations of
// different groups are incomparable, so the transitive reduction of the
// space is exactly the union of the per-group reductions. Built once,
// on first use (a walk that cannot prune never needs it).
func (o *spaceOrder) edges() (preds, succs [][]int32) {
	o.edgesOnce.Do(func() {
		o.preds = make([][]int32, o.n)
		o.succs = make([][]int32, o.n)
		for g, members := range o.groups {
			for _, e := range o.posets[g].Edges() {
				a, b := members[e[0]], members[e[1]]
				o.preds[b] = append(o.preds[b], a)
				o.succs[a] = append(o.succs[a], b)
			}
		}
	})
	return o.preds, o.succs
}

// safest computes the constraint-filtered maximal elements of the
// space — group by group, since maximality never crosses incomparable
// groups — and returns them ascending, exactly as the global
// poset.Maximal computation would.
func (o *spaceOrder) safest(res *Result) []int {
	var out []int
	for g, members := range o.groups {
		for _, li := range o.posets[g].Maximal(func(i int32) bool {
			return res.Feasible(int(i))
		}) {
			out = append(out, int(members[li]))
		}
	}
	sort.Ints(out)
	return out
}

// levels grades the space like Result.SafetyLevels: each
// configuration's longest strict safety chain below it, computed over
// the grouped Hasse edges.
func (o *spaceOrder) levels() []int {
	preds, succs := o.edges()
	level := make([]int, o.n)
	indeg := make([]int, o.n)
	queue := make([]int32, 0, o.n)
	for i := 0; i < o.n; i++ {
		indeg[i] = len(preds[i])
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range succs[i] {
			if level[i]+1 > level[j] {
				level[j] = level[i] + 1
			}
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	return level
}
