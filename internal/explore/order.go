package explore

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/poset"
)

// Leq reports whether a is probabilistically at most as safe as b — the
// partial order of §5, built from the paper's four monotonicity
// assumptions: safety increases with (1) the number of compartments
// (partition refinement), (2) data isolation, (3) stackable software
// hardening, and (4) the strength of the isolation mechanism. Different
// machines are different safety universes: configurations on distinct
// profiles never compare, and neither do configurations over different
// component sets. Everything else is leqSig, the one comparison the
// engine, the reports and this function share.
func Leq(a, b *Config) bool {
	if a.Profile != b.Profile {
		return false
	}
	var blocks []int16
	var hs []harden.Set
	sa, sb := sigOf(a, &blocks, &hs), sigOf(b, &blocks, &hs)
	return slices.Equal(sa.comps, sb.comps) && leqSig(&sa, &sb)
}

// sig is a precomputed comparison signature for one configuration: the
// inputs the safety order reads, extracted once so it can be evaluated
// allocation-free. Component names are sorted; block and hs align with
// comps positionally. Signatures of configurations with different
// component sets are never compared (such configurations are
// incomparable), and neither are signatures of configurations on
// different machine profiles (the group key separates them).
type sig struct {
	comps    []string
	block    []int16
	hs       []harden.Set
	strength isolation.Strength
	share    int8
	gate     int8
	aslr     isolation.ASLR
}

// sigOf extracts c's signature, appending its positional columns to the
// caller's arenas so a whole space shares two backing arrays.
func sigOf(c *Config, blockArena *[]int16, hsArena *[]harden.Set) sig {
	s := sig{
		comps:    c.Components(),
		strength: c.Strength(),
		share:    int8(c.SharingRank()),
		gate:     int8(c.GateRank()),
		aslr:     c.ASLR,
	}
	b0, h0 := len(*blockArena), len(*hsArena)
	for _, comp := range s.comps {
		*blockArena = append(*blockArena, int16(c.blockOf(comp)))
		*hsArena = append(*hsArena, c.Hardening[comp])
	}
	s.block = (*blockArena)[b0:len(*blockArena):len(*blockArena)]
	s.hs = (*hsArena)[h0:len(*hsArena):len(*hsArena)]
	return s
}

// leqSig is the safety order on two configurations with identical
// sorted component sets on one profile: (4) mechanism strength, ASLR as
// a product dimension (b must dominate on both entropy and leak
// resistance), (1) partition refinement — components together in b are
// together in a —, (3) per-component hardening that never shrinks, and
// (2) the data-isolation ranks. It allocates nothing, which is what
// makes building 10k–1M-point safety orders practical.
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
		o.sigs[i] = sigOf(c, &blockArena, &hsArena)

		// Distinct machine profiles are incomparable universes (Leq
		// returns false across them), so they partition into separate
		// groups; "\x01" cannot appear in a component name or profile,
		// keeping the key unambiguous.
		key := strings.Join(o.sigs[i].comps, "\x00") + "\x01" + c.Profile
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
// poset.Maximal computation would. Feasibility is evaluated once per
// configuration, into a bitset over the group.
func (o *spaceOrder) safest(res *Result) []int {
	var out []int
	for g, members := range o.groups {
		keep := poset.NewBitset(len(members))
		for li, i := range members {
			if res.Feasible(int(i)) {
				keep.Set(li)
			}
		}
		for _, li := range o.posets[g].Maximal(keep) {
			out = append(out, int(members[li]))
		}
	}
	sort.Ints(out)
	return out
}

// above returns the indices of the configurations strictly safer than
// i, ascending. Only i's group can hold them.
func (o *spaceOrder) above(i int) []int {
	for g, members := range o.groups {
		li, ok := slices.BinarySearch(members, int32(i))
		if !ok {
			continue
		}
		var out []int
		for _, lj := range o.posets[g].Above(li) {
			out = append(out, int(members[lj]))
		}
		return out
	}
	return nil
}

// levels grades the space for Result.SafetyLevels: each
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
