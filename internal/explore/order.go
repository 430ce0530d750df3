package explore

import (
	"slices"
	"sort"
	"sync"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/poset"
)

// Leq reports whether a is probabilistically at most as safe as b — the
// safety order of §5, built from the paper's four monotonicity
// assumptions: safety increases with (1) the number of compartments
// (partition refinement), (2) data isolation, (3) stackable software
// hardening, and (4) the strength of the isolation mechanism. Different
// machines are different safety universes: configurations on distinct
// profiles never compare, and neither do configurations over different
// component sets. Everything else is leqSig, which reads the table the
// engine and the reports build their order from.
func Leq(a, b *Config) bool {
	if a.Profile != b.Profile {
		return false
	}
	sa, sb := sigOf(a), sigOf(b)
	return slices.EqualFunc(sa.comps, sb.comps, func(x, y placed) bool { return x.name == y.name }) &&
		leqSig(&sa, &sb)
}

// sig is a precomputed comparison signature for one configuration: the
// inputs the safety order reads, extracted once so it can be evaluated
// allocation-free. comps is the configuration's layout, so a column i
// means the same component in every signature of one group.
// Signatures of configurations with different component sets are never
// compared (such configurations are incomparable), and neither are
// signatures of configurations on different machine profiles (the
// group key separates them).
type sig struct {
	comps    []placed
	strength isolation.Strength
	share    int8
	gate     int8
	aslr     isolation.ASLR
}

// sigOf extracts c's signature.
func sigOf(c *Config) sig {
	return sig{
		comps:    c.layout(),
		strength: c.Strength(),
		share:    int8(c.SharingRank()),
		gate:     int8(c.GateRank()),
		aslr:     c.ASLR,
	}
}

// The safety order is a conjunction of independent clauses, each read
// from a signature as one or more columns: a ≤ b exactly when every
// column of a is at most b's under its clause's order. clauses is the
// order's only definition. leqSig compares two signatures column by
// column, and newSpaceOrder builds each group's relation from the
// per-column up-sets (poset.Meet), so a clause added here reaches every
// view of the order at once.
var clauses = []clause{
	// ASLR as a product dimension: b must dominate on both entropy and
	// leak resistance.
	newClause(scalar, func(s *sig, _, _ int) isolation.ASLR { return s.aslr }, isolation.ASLR.Leq),
	// (4) mechanism strength.
	newClause(scalar, func(s *sig, _, _ int) isolation.Strength { return s.strength }, atMost[isolation.Strength]),
	// (2) data isolation: the sharing and gate ranks.
	newClause(scalar, func(s *sig, _, _ int) int8 { return s.share }, atMost[int8]),
	newClause(scalar, func(s *sig, _, _ int) int8 { return s.gate }, atMost[int8]),
	// (3) per-component hardening that never shrinks.
	newClause(perComp, func(s *sig, i, _ int) harden.Set { return s.comps[i].hs }, harden.Set.Subset),
	// (1) partition refinement: components separated in a are
	// separated in b — together ≤ separated.
	newClause(perPair, func(s *sig, i, j int) bool { return s.comps[i].block != s.comps[j].block }, implies),
}

func atMost[V ~int | ~int8](x, y V) bool { return x <= y }

func implies(x, y bool) bool { return !x || y }

// arity is how many columns a clause spreads over.
type arity uint8

const (
	scalar  arity = iota // one column
	perComp              // one column per component
	perPair              // one column per pair of components
)

// clause is one clause of the safety order. holds compares two
// signatures in column (i, j) — i and j are component positions, unused
// by a scalar clause and j unused per component. field interns the
// column's values over a group's members into a poset.Field, writing
// each member's value index into of.
type clause struct {
	arity arity
	holds func(a, b *sig, i, j int) bool
	field func(sigs []sig, members []int32, i, j int, of []int32) poset.Field
}

// newClause makes the clause whose column (i, j) holds the value
// value(s, i, j), ordered by leq.
func newClause[V comparable](ar arity, value func(s *sig, i, j int) V, leq func(x, y V) bool) clause {
	return clause{
		arity: ar,
		holds: func(a, b *sig, i, j int) bool { return leq(value(a, i, j), value(b, i, j)) },
		field: func(sigs []sig, members []int32, i, j int, of []int32) poset.Field {
			// A column holds a handful of distinct values, so a linear
			// scan interns them faster than a map.
			var vals []V
			for li, m := range members {
				v := value(&sigs[m], i, j)
				x := slices.Index(vals, v)
				if x < 0 {
					x = len(vals)
					vals = append(vals, v)
				}
				of[li] = int32(x)
			}
			return poset.Field{Of: of, Values: len(vals), Leq: func(x, y int) bool { return leq(vals[x], vals[y]) }}
		},
	}
}

// columns calls f with the (i, j) of each of the clause's columns over
// nc components, in order, until f returns false; it reports whether f
// never did.
func (c *clause) columns(nc int, f func(i, j int) bool) bool {
	switch c.arity {
	case perComp:
		for i := 0; i < nc; i++ {
			if !f(i, 0) {
				return false
			}
		}
		return true
	case perPair:
		for i := 0; i < nc; i++ {
			for j := i + 1; j < nc; j++ {
				if !f(i, j) {
					return false
				}
			}
		}
		return true
	}
	return f(0, 0)
}

// leqSig is the safety order on two configurations with identical
// sorted component sets on one profile: every column of clauses holds.
// It allocates nothing.
func leqSig(a, b *sig) bool {
	nc := len(a.comps)
	for k := range clauses {
		c := &clauses[k]
		if !c.columns(nc, func(i, j int) bool { return c.holds(a, b, i, j) }) {
			return false
		}
	}
	return true
}

// spaceOrder is the engine's view of a configuration space's safety
// structure: the partition of the space into mutually incomparable
// component groups, and one small poset per group. Real cross-application spaces decompose into many
// groups of bounded size (one per application × component set), and
// each group's relation is the meet of its clauses' columns: every
// column holds a handful of distinct values, so a group of n members
// costs O(n · columns · n/64) word operations instead of n² signature
// comparisons — the difference between 30s and milliseconds of setup
// on a 10k-point space.
type spaceOrder struct {
	n      int
	groups [][]int32             // member indices per group, ascending
	posets []*poset.Poset[int32] // one per group, over global indices

	edgesOnce    sync.Once
	preds, succs [][]int32 // Hasse edges of the whole space, global indices
}

// sigsOf extracts every configuration's signature.
func sigsOf(cfgs []*Config) []sig {
	sigs := make([]sig, len(cfgs))
	for i, c := range cfgs {
		sigs[i] = sigOf(c)
	}
	return sigs
}

// newSpaceOrder groups the configurations and builds each group's
// poset from the columns of clauses.
func newSpaceOrder(cfgs []*Config) *spaceOrder {
	o := &spaceOrder{n: len(cfgs)}
	sigs := sigsOf(cfgs)
	byComps := make(map[string]int32, len(cfgs)/16+1)
	var key []byte
	for i, c := range cfgs {
		// Distinct machine profiles are incomparable universes (Leq
		// returns false across them), so they partition into separate
		// groups; "\x01" cannot appear in a component name or profile,
		// keeping the key unambiguous. The lookup converts the key
		// without copying it; only a new group's key is kept.
		key = key[:0]
		for _, p := range sigs[i].comps {
			key = append(append(key, p.name...), 0)
		}
		key = append(append(key, 1), c.Profile...)
		g, ok := byComps[string(key)]
		if !ok {
			g = int32(len(o.groups))
			byComps[string(key)] = g
			o.groups = append(o.groups, nil)
		}
		o.groups[g] = append(o.groups[g], int32(i))
	}
	o.posets = make([]*poset.Poset[int32], len(o.groups))
	// Meet reads the fields and keeps none of them, so every group's
	// value indices are cut from one buffer. A column cut before the
	// buffer grows keeps the old array, which nothing writes again.
	var fields []poset.Field
	var ofs []int32
	for g, members := range o.groups {
		nc := len(sigs[members[0]].comps)
		fields, ofs = fields[:0], ofs[:0]
		for k := range clauses {
			c := &clauses[k]
			c.columns(nc, func(i, j int) bool {
				ofs = slices.Grow(ofs, len(members))
				of := ofs[len(ofs) : len(ofs)+len(members)]
				ofs = ofs[:len(ofs)+len(members)]
				fields = append(fields, c.field(sigs, members, i, j, of))
				return true
			})
		}
		o.posets[g] = poset.Meet(members, fields)
	}
	return o
}

// edges returns the Hasse diagram of the whole space as predecessor and
// successor adjacency lists over global indices. Configurations of
// different groups are incomparable, so the transitive reduction of the
// space is exactly the union of the per-group reductions. The degrees
// are counted first, so every list is a slice of one of two backing
// arrays. Built once, on first use (a walk that cannot prune never
// needs it).
func (o *spaceOrder) edges() (preds, succs [][]int32) {
	o.edgesOnce.Do(func() {
		groupEdges := make([][][2]int, len(o.groups))
		npred := make([]int32, o.n)
		nsucc := make([]int32, o.n)
		total := 0
		for g, members := range o.groups {
			groupEdges[g] = o.posets[g].Edges()
			for _, e := range groupEdges[g] {
				nsucc[members[e[0]]]++
				npred[members[e[1]]]++
			}
			total += len(groupEdges[g])
		}
		o.preds = adjacency(npred, make([]int32, total))
		o.succs = adjacency(nsucc, make([]int32, total))
		for g, members := range o.groups {
			for _, e := range groupEdges[g] {
				a, b := members[e[0]], members[e[1]]
				o.preds[b] = append(o.preds[b], a)
				o.succs[a] = append(o.succs[a], b)
			}
		}
	})
	return o.preds, o.succs
}

// adjacency cuts backing into one empty list per node, list i with room
// for exactly degree[i] entries, so appending them never reallocates.
func adjacency(degree []int32, backing []int32) [][]int32 {
	lists := make([][]int32, len(degree))
	off := 0
	for i, d := range degree {
		end := off + int(d)
		lists[i] = backing[off:off:end]
		off = end
	}
	return lists
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
