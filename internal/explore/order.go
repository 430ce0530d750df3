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
// sorted component sets on one profile: ASLR as a product dimension (b
// must dominate on both entropy and leak resistance) and the order of
// their images, leqImage. It allocates nothing, which is what makes
// building 10k–1M-point safety orders practical.
func leqSig(a, b *sig) bool {
	return a.aslr.Leq(b.aslr) && leqImage(a, b)
}

// leqImage is the safety order on everything of a signature but its
// ASLR level — the image Config.ImageKey names: (4) mechanism strength,
// (1) partition refinement — components together in b are together in
// a —, (3) per-component hardening that never shrinks, and (2) the
// data-isolation ranks. A group that is a full product of images and
// ASLR values orders its images with this alone (factorGroup).
func leqImage(a, b *sig) bool {
	if a.strength > b.strength || a.share > b.share || a.gate > b.gate {
		return false
	}
	nc := len(a.comps)
	for k := 0; k < nc; k++ {
		if !a.hs[k].Subset(b.hs[k]) {
			return false
		}
	}
	for i := 0; i < nc; i++ {
		for j := i + 1; j < nc; j++ {
			if b.block[i] == b.block[j] && a.block[i] != a.block[j] {
				return false
			}
		}
	}
	return true
}

// sameImage reports whether two signatures of one group agree on every
// field leqImage reads, so that either can stand for the other's image.
func sameImage(a, b *sig) bool {
	return a.strength == b.strength && a.share == b.share && a.gate == b.gate &&
		slices.Equal(a.block, b.block) && slices.Equal(a.hs, b.hs)
}

// spaceOrder is the engine's view of a configuration space's safety
// structure: per-configuration comparison signatures, the partition of
// the space into mutually incomparable component groups, and one small
// poset per group. Real cross-application spaces decompose into many
// groups of bounded size (one per application × component set), so the
// safety order of an n-point space costs Σ group² signature
// comparisons instead of the n² allocating Leq evaluations a global
// poset would — the difference between 30s and 30ms of setup on a
// 10k-point space. A group that crosses every one of its images with
// the same ASLR values (an attack space swept along its ladder) costs
// less again: its poset is the product of an image poset and a ladder
// poset (factorGroup), so only images are compared pairwise.
type spaceOrder struct {
	n        int
	sigs     []sig
	groups   [][]int32             // member indices per group, ascending
	posets   []*poset.Poset[int32] // one per group, over global indices
	factored int                   // groups whose poset is a factor product

	edgesOnce    sync.Once
	preds, succs [][]int32 // Hasse edges of the whole space, global indices
}

// newSpaceOrder builds signatures, groups and per-group posets. keys
// are the configurations' rendered Keys. With factor set, every group
// that is a full product of images and ASLR values is built from its
// factors; the pairwise build (factor false) is that build's test
// oracle.
func newSpaceOrder(cfgs []*Config, keys []string, factor bool) *spaceOrder {
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
		if factor {
			if p := o.factorGroup(keys, members); p != nil {
				o.posets[g] = p
				o.factored++
				continue
			}
		}
		o.posets[g] = poset.New(members, func(a, b int32) bool {
			return leqSig(&o.sigs[a], &o.sigs[b])
		})
	}
	return o
}

// factorGroup builds a group's poset as the product of its image order
// and its ASLR ladder, or returns nil when the group is not a full
// product: a single ASLR value, some image (Config.ImageKey, read off
// the Key) missing or repeated at some ASLR value of the group, or
// members of one image disagreeing on a field leqImage reads. leqSig
// is the conjunction of the ladder's order and leqImage, so on a full
// product the two factors give the pairwise build's relation bit for
// bit, and poset.Product its Hasse edges in the same order.
func (o *spaceOrder) factorGroup(keys []string, members []int32) *poset.Poset[int32] {
	var ladder []isolation.ASLR
	ladOf := make([]int32, len(members))
	for li, i := range members {
		k := slices.Index(ladder, o.sigs[i].aslr)
		if k < 0 {
			k = len(ladder)
			ladder = append(ladder, o.sigs[i].aslr)
		}
		ladOf[li] = int32(k)
	}
	if len(ladder) < 2 || len(members)%len(ladder) != 0 {
		return nil
	}
	nimg := len(members) / len(ladder)
	imgOf := make([]int32, len(members))
	reps := make([]int32, 0, nimg) // each image's first member
	byKey := make(map[string]int32, nimg)
	var buf []byte
	filled := poset.NewBitset(len(members))
	for li, i := range members {
		buf = appendImageKey(buf[:0], keys[i])
		x, ok := byKey[string(buf)]
		if !ok {
			if len(reps) == nimg {
				return nil
			}
			x = int32(len(reps))
			byKey[string(buf)] = x
			reps = append(reps, i)
		} else if !sameImage(&o.sigs[reps[x]], &o.sigs[i]) {
			return nil
		}
		c := int(x)*len(ladder) + int(ladOf[li])
		if filled.Test(c) {
			return nil
		}
		filled.Set(c)
		imgOf[li] = x
	}
	images := poset.New(reps, func(a, b int32) bool { return leqImage(&o.sigs[a], &o.sigs[b]) })
	return poset.Product(members, images, imgOf, poset.New(ladder, isolation.ASLR.Leq), ladOf)
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

// safest computes the maximal elements among the feasible
// configurations of the space — group by group, since maximality never
// crosses incomparable groups — and returns them ascending, exactly as
// the global poset.Maximal computation would. Feasibility is evaluated
// once per configuration, into a bitset over the group.
func (o *spaceOrder) safest(feasible func(i int) bool) []int {
	var out []int
	for g, members := range o.groups {
		keep := poset.NewBitset(len(members))
		for li, i := range members {
			if feasible(int(i)) {
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
