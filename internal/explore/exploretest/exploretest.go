// Package exploretest is the shared oracle harness of the exploration
// engine's property tests: a brute-force map-frontier reference
// explorer, byte-comparable report renders, feasibility and safest-set
// oracles, a counting in-memory Backing double, and deterministic
// random space/measure generators. The engine's white-box tests used to
// carry private copies of all of these; budgeted guided search, delta
// re-exploration and the sharded warm-start pipeline are all proved
// against this one harness instead, so "agrees with the exhaustive
// oracle, byte for byte, at every worker count" means the same thing in
// every test that claims it.
//
// Everything here works through the explore package's exported API
// only, which keeps the oracle honest: it cannot peek at the engine's
// bitsets, groups or signatures, and a harness-driven test is a test of
// the public contract.
package exploretest

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"flexos/internal/explore"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/poset"
	"flexos/internal/scenario"
)

// Outcome is the reference explorer's per-configuration record,
// mirroring the fields of explore.Measurement that the determinism
// contract covers.
type Outcome struct {
	Perf      float64
	Metrics   explore.Metrics
	Evaluated bool
	Pruned    bool
	Cached    bool
}

// Report bundles one reference run: per-configuration outcomes in input
// order, the constraint-filtered maximal (safest) indices, and the
// fresh-measurement / twin-fill accounting.
type Report struct {
	Outcomes  []Outcome
	Safest    []int
	Evaluated int
	MemoHits  int
}

// ReferenceLeq is the oracle's safety order: the allocating, field by
// field statement of the §5 relation explore.Leq implements over
// precomputed signatures — same profile, mechanism strength, ASLR as a
// product dimension, an identical component set whose partition b
// refines, per-component hardening that never shrinks, and the
// data-isolation ranks. It reads only exported configuration fields,
// so a test comparing the two compares independent statements.
func ReferenceLeq(a, b *explore.Config) bool {
	if a.Profile != b.Profile {
		return false
	}
	if a.Strength() > b.Strength() {
		return false
	}
	if !a.ASLR.Leq(b.ASLR) {
		return false
	}
	comps := a.Components()
	if !slices.Equal(comps, b.Components()) {
		return false
	}
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			if blockOf(b, comps[i]) == blockOf(b, comps[j]) &&
				blockOf(a, comps[i]) != blockOf(a, comps[j]) {
				return false
			}
		}
	}
	for _, comp := range comps {
		if !a.Hardening[comp].Subset(b.Hardening[comp]) {
			return false
		}
	}
	return a.SharingRank() <= b.SharingRank() && a.GateRank() <= b.GateRank()
}

// blockOf returns the index of the block holding comp, or -1.
func blockOf(c *explore.Config, comp string) int {
	for i, blk := range c.Blocks {
		if slices.Contains(blk, comp) {
			return i
		}
	}
	return -1
}

// Reference is the oracle: a sequential explorer with map-backed
// frontiers over the full space-wide ReferenceLeq poset. It reproduces
// the engine's decision semantics — canonical-twin dedup, monotone
// pruning gated on fully-decided predecessor sets — with none of its
// machinery: no bitsets, no groups, no signatures, no batching, no
// budget. Budgeted and delta runs are compared against it as the
// exhaustive ground truth.
func Reference(cfgs []*explore.Config, measure explore.MeasureMetrics, metric explore.Metric, constraints []explore.Constraint, prune bool) *Report {
	n := len(cfgs)
	p := poset.New(cfgs, ReferenceLeq)
	preds := make([][]int, n)
	for _, e := range p.Edges() {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	canon := make([]int, n)
	first := map[string]int{}
	for i, c := range cfgs {
		k := c.Key()
		if f, ok := first[k]; ok {
			canon[i] = f
		} else {
			first[k] = i
			canon[i] = i
		}
	}

	rep := &Report{Outcomes: make([]Outcome, n)}
	out := rep.Outcomes
	decided := map[int]bool{}
	valued := map[int]bool{}
	failsBudget := map[int]bool{}
	for len(decided) < n {
		progress := false
		for i := 0; i < n; i++ {
			if decided[i] {
				continue
			}
			ready := true
			for _, pr := range preds[i] {
				if !decided[pr] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			progress = true
			if prune {
				prunedHere := false
				for _, pr := range preds[i] {
					if failsBudget[pr] {
						prunedHere = true
						break
					}
				}
				if prunedHere {
					out[i].Pruned = true
					failsBudget[i] = true
					decided[i] = true
					continue
				}
			}
			var mx explore.Metrics
			if c := canon[i]; c != i && valued[c] {
				mx = out[c].Metrics
				out[i].Cached = true
				rep.MemoHits++
			} else {
				mx, _ = measure(cfgs[i])
				rep.Evaluated++
			}
			out[i].Metrics = mx
			out[i].Perf = metric.Value(mx)
			out[i].Evaluated = true
			valued[i] = true
			if FailsMonotone(constraints, mx) {
				failsBudget[i] = true
			}
			decided[i] = true
		}
		if !progress {
			panic("exploretest: reference explorer wedged: cycle in poset")
		}
	}
	rep.Safest = p.Maximal(poset.BitsetOf(n, func(i int) bool {
		return out[i].Evaluated && MeetsAll(constraints, out[i].Metrics)
	}))
	sort.Ints(rep.Safest)
	return rep
}

// Render serializes the reference run into the canonical textual
// report, so oracle equality is asserted byte for byte rather than
// field by field. RenderResult produces the same text from an engine
// result: a run matches the oracle exactly when the two strings are
// equal.
func (r *Report) Render() string {
	var b strings.Builder
	for i, o := range r.Outcomes {
		fmt.Fprintf(&b, "%d perf=%.9g eval=%t pruned=%t cached=%t mx=%+v\n",
			i, o.Perf, o.Evaluated, o.Pruned, o.Cached, o.Metrics)
	}
	fmt.Fprintf(&b, "safest=%v evaluated=%d memohits=%d\n", r.Safest, r.Evaluated, r.MemoHits)
	return b.String()
}

// RenderResult is Render's engine-side counterpart. It also doubles as
// the worker-independence probe: two runs of the same request are
// byte-identical exactly when their renders are.
func RenderResult(res *explore.Result) string {
	var b strings.Builder
	for i := range res.Measurements {
		m := &res.Measurements[i]
		fmt.Fprintf(&b, "%d perf=%.9g eval=%t pruned=%t cached=%t mx=%+v\n",
			i, m.Perf, m.Evaluated, m.Pruned, m.Cached, m.Metrics)
	}
	fmt.Fprintf(&b, "safest=%v evaluated=%d memohits=%d\n", res.Safest, res.Evaluated, res.MemoHits)
	return b.String()
}

// MeetsAll reports whether a vector satisfies every constraint.
func MeetsAll(cs []explore.Constraint, mx explore.Metrics) bool {
	for _, c := range cs {
		if !c.Meets(mx) {
			return false
		}
	}
	return true
}

// FailsMonotone reports whether the vector violates any constraint
// whose violation propagates up the safety order (see
// explore.Constraint.Monotone) — the oracle's pruning trigger.
func FailsMonotone(cs []explore.Constraint, mx explore.Metrics) bool {
	for _, c := range cs {
		if c.Monotone() && !c.Meets(mx) {
			return true
		}
	}
	return false
}

// FeasibleSet derives the feasible indices of an exhaustively-measured
// oracle result under a constraint list.
func FeasibleSet(res *explore.Result, cs []explore.Constraint) map[int]bool {
	out := make(map[int]bool)
	for i, m := range res.Measurements {
		if MeetsAll(cs, m.Metrics) {
			out[i] = true
		}
	}
	return out
}

// SafestUnder recomputes the constraint-filtered maximal elements of
// the ReferenceLeq poset from an exhaustive oracle result: the safest
// set the engine must report under cs, regardless of which constraints
// the oracle itself ran with.
func SafestUnder(res *explore.Result, cs []explore.Constraint) []int {
	n := len(res.Measurements)
	cfgs := make([]*explore.Config, n)
	for i := range res.Measurements {
		cfgs[i] = res.Measurements[i].Config
	}
	out := poset.New(cfgs, ReferenceLeq).Maximal(poset.BitsetOf(n, func(i int) bool {
		m := &res.Measurements[i]
		return m.Evaluated && MeetsAll(cs, m.Metrics)
	}))
	sort.Ints(out)
	return out
}

// FeasibleFront computes the safety × throughput × memory Pareto front
// of an exhaustive oracle result restricted to its feasible
// configurations under cs — the front a budgeted run must reproduce
// when its budget covers the feasible region. It mirrors
// explore.Result.ParetoFront's dominance rule (safety level at least as
// high, throughput at least as high, peak memory at most as high,
// strictly better somewhere) but ranks only evaluated configurations
// meeting every constraint, because a budgeted run never carries
// vectors for infeasible boundary probes.
func FeasibleFront(res *explore.Result, cs []explore.Constraint) []int {
	level := res.SafetyLevels()
	feasible := make([]int, 0, len(res.Measurements))
	for i := range res.Measurements {
		m := &res.Measurements[i]
		if m.Evaluated && MeetsAll(cs, m.Metrics) {
			feasible = append(feasible, i)
		}
	}
	dominates := func(i, j int) bool {
		mi, mj := res.Measurements[i].Metrics, res.Measurements[j].Metrics
		if level[i] < level[j] || mi.Throughput < mj.Throughput || mi.PeakMemBytes > mj.PeakMemBytes {
			return false
		}
		return level[i] > level[j] ||
			mi.Throughput > mj.Throughput ||
			mi.PeakMemBytes < mj.PeakMemBytes
	}
	var front []int
	for _, i := range feasible {
		dominated := false
		for _, j := range feasible {
			if i != j && dominates(j, i) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// Decisions is the prune-decision accounting of a run: how every
// configuration of the space was decided. Undecided counts
// configurations that are neither evaluated nor pruned — skipped by a
// budget or a delta run; exhaustive runs always decide everything.
type Decisions struct {
	Evaluated int
	Cached    int
	Pruned    int
	Undecided int
}

// DecisionsOf tallies a result's per-configuration decisions.
func DecisionsOf(res *explore.Result) Decisions {
	var d Decisions
	for i := range res.Measurements {
		m := &res.Measurements[i]
		switch {
		case m.Evaluated:
			d.Evaluated++
			if m.Cached {
				d.Cached++
			}
		case m.Pruned:
			d.Pruned++
		default:
			d.Undecided++
		}
	}
	return d
}

// MapBacking is an in-memory explore.Backing double that counts
// traffic: loads, load hits, and stores (with the stored keys in store
// order). Tests use the counters to prove cache-hit economics — a warm
// run measures nothing fresh, a delta run re-measures exactly the
// absent keys — and the uncounted Put/Delete/Snapshot accessors to
// seed, mutate and merge stores without disturbing the accounting.
type MapBacking struct {
	mu       sync.Mutex
	m        map[string]explore.Metrics
	loads    int
	hits     int
	stores   int
	storeLog []string
}

// NewMapBacking returns an empty counting store.
func NewMapBacking() *MapBacking { return &MapBacking{m: make(map[string]explore.Metrics)} }

// Load implements explore.Backing, counting the lookup and the hit.
func (b *MapBacking) Load(key string) (explore.Metrics, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	m, ok := b.m[key]
	if ok {
		b.hits++
	}
	return m, ok
}

// Store implements explore.Backing, counting the write and logging its
// key.
func (b *MapBacking) Store(key string, m explore.Metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stores++
	b.storeLog = append(b.storeLog, key)
	b.m[key] = m
}

// Loads, Hits and Stores report the traffic counters.
func (b *MapBacking) Loads() int  { b.mu.Lock(); defer b.mu.Unlock(); return b.loads }
func (b *MapBacking) Hits() int   { b.mu.Lock(); defer b.mu.Unlock(); return b.hits }
func (b *MapBacking) Stores() int { b.mu.Lock(); defer b.mu.Unlock(); return b.stores }

// StoredKeys returns the keys every Store wrote, sorted (concurrent
// workers store in nondeterministic order; the set is deterministic).
func (b *MapBacking) StoredKeys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]string(nil), b.storeLog...)
	sort.Strings(out)
	return out
}

// Len reports the number of distinct keys held, without counting.
func (b *MapBacking) Len() int { b.mu.Lock(); defer b.mu.Unlock(); return len(b.m) }

// Get reads a key without touching the counters.
func (b *MapBacking) Get(key string) (explore.Metrics, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m, ok := b.m[key]
	return m, ok
}

// Put writes a key without touching the counters (seeding, merging).
func (b *MapBacking) Put(key string, m explore.Metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = m
}

// Delete drops a key without touching the counters (delta mutation).
func (b *MapBacking) Delete(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, key)
}

// Snapshot copies the store's contents, without counting.
func (b *MapBacking) Snapshot() map[string]explore.Metrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]explore.Metrics, len(b.m))
	for k, v := range b.m {
		out[k] = v
	}
	return out
}

// ResetCounters zeroes the traffic counters and the store log, keeping
// the contents — so a test can seed a store and then account only the
// run under scrutiny.
func (b *MapBacking) ResetCounters() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads, b.hits, b.stores, b.storeLog = 0, 0, 0, nil
}

// ----- deterministic random spaces and measures ---------------------

var (
	components = []string{"app", "libc", "sched", "net"}
	techs      = []harden.Tech{harden.CFI, harden.KASan, harden.UBSan, harden.StackProtector}
)

// randomPartition splits the four components into 1..4 blocks.
func randomPartition(rng *rand.Rand) [][]string {
	nblocks := rng.Intn(4) + 1
	blocks := make([][]string, nblocks)
	for i, comp := range components {
		b := rng.Intn(nblocks)
		if i < nblocks {
			b = i // guarantee no block is empty
		}
		blocks[b] = append(blocks[b], comp)
	}
	return blocks
}

// RandomSpace generates n random configurations: random partitions,
// per-component hardening subsets, mechanisms, gates and sharing
// strategies. Duplicates are allowed (the engine must handle twins).
func RandomSpace(rng *rand.Rand, n int) []*explore.Config {
	mechs := []string{"none", "intel-mpk", "vm-ept"}
	gates := []isolation.GateMode{isolation.GateLight, isolation.GateFull}
	sharings := []isolation.Sharing{isolation.ShareStack, isolation.ShareDSS, isolation.ShareHeap}
	cfgs := make([]*explore.Config, n)
	for i := range cfgs {
		h := make(map[string]harden.Set)
		for _, comp := range components {
			var ts []harden.Tech
			for _, tech := range techs {
				if rng.Intn(2) == 0 {
					ts = append(ts, tech)
				}
			}
			if len(ts) > 0 {
				h[comp] = harden.NewSet(ts...)
			}
		}
		cfgs[i] = &explore.Config{
			ID:        i,
			Blocks:    randomPartition(rng),
			Hardening: h,
			Mechanism: mechs[rng.Intn(len(mechs))],
			GateMode:  gates[rng.Intn(len(gates))],
			Sharing:   sharings[rng.Intn(len(sharings))],
		}
	}
	return cfgs
}

// CopySpace clones a space so each engine run builds its own poset over
// fresh pointers (Results key Maximal by pointer identity).
func CopySpace(cfgs []*explore.Config) []*explore.Config {
	out := make([]*explore.Config, len(cfgs))
	for i, c := range cfgs {
		cc := *c
		out[i] = &cc
	}
	return out
}

// The safety ranks the safety order compares, recomputed from the
// exported configuration fields (the mirror of the engine's own
// ranking — see ReferenceLeq's dimensions).
func mechStrength(c *explore.Config) int {
	switch c.Mechanism {
	case "intel-mpk", "mpk", "cheri":
		return 1
	case "vm-ept", "ept", "intel-sgx", "sgx":
		return 2
	}
	return 0
}

func gateRank(c *explore.Config) int {
	if c.NumCompartments() == 1 || c.GateMode != isolation.GateLight {
		return 1
	}
	return 0
}

func sharingRank(c *explore.Config) int {
	if c.NumCompartments() == 1 || c.Sharing != isolation.ShareStack {
		return 1
	}
	return 0
}

// Measure is a scalar measure function: one performance value per
// configuration, higher is better. Lift turns it into the metric
// vector the engine takes.
type Measure func(*explore.Config) (float64, error)

// MonotoneMeasure builds a measure function with random positive
// weights that is decreasing along the safety order: every dimension
// the Leq relation compares contributes non-negatively to cost, so
// a ≤ b implies measure(a) >= measure(b) — the §5 assumption pruning
// relies on.
func MonotoneMeasure(rng *rand.Rand) Measure {
	wComp := float64(rng.Intn(200) + 1)
	wStrength := float64(rng.Intn(300) + 1)
	wGate := float64(rng.Intn(50) + 1)
	wShare := float64(rng.Intn(50) + 1)
	wTech := make(map[harden.Tech]float64, len(techs))
	for _, tech := range techs {
		wTech[tech] = float64(rng.Intn(40) + 1)
	}
	return func(c *explore.Config) (float64, error) {
		cost := wComp*float64(c.NumCompartments()-1) +
			wStrength*float64(mechStrength(c)) +
			wGate*float64(gateRank(c)) +
			wShare*float64(sharingRank(c))
		for _, comp := range c.Components() {
			for _, tech := range techs {
				if c.Hardening[comp].Has(tech) {
					cost += wTech[tech]
				}
			}
		}
		return 100_000 - cost, nil
	}
}

// Lift adapts a scalar measure into a metric-vector measure with only
// the throughput dimension populated.
func Lift(measure Measure) explore.MeasureMetrics {
	return func(c *explore.Config) (explore.Metrics, error) {
		v, err := measure(c)
		if err != nil {
			return explore.Metrics{}, err
		}
		return explore.Metrics{Throughput: v}, nil
	}
}

// VectorMeasure derives a safety-monotone metric-vector measure with
// random positive weights: throughput falls and every cost metric rises
// as configurations get safer, matching the engine's pruning
// assumption, like MonotoneMeasure does for scalars.
func VectorMeasure(rng *rand.Rand) explore.MeasureMetrics {
	scalar := MonotoneMeasure(rng)
	latW := float64(rng.Intn(900)+100) / 1e6
	memW := uint64(rng.Intn(40) + 1)
	bootW := uint64(rng.Intn(20) + 1)
	return func(c *explore.Config) (explore.Metrics, error) {
		v, err := scalar(c)
		if err != nil {
			return explore.Metrics{}, err
		}
		cost := 100_000 - v // >= 0 by construction
		return explore.Metrics{
			Throughput:   v,
			P50us:        1 + cost*latW,
			P99us:        2 + cost*latW*2,
			MaxUs:        3 + cost*latW*4,
			PeakMemBytes: 1000 + uint64(cost)*memW,
			BootCycles:   500 + uint64(cost)*bootW,
			Cycles:       uint64(cost) + 1,
			Ops:          1,
		}, nil
	}
}

// ----- adversarial attack-axis spaces and the survival oracle -------

// attackTechs extends the hardening alphabet with ShadowStack, the
// control-flow tech of the attack axis, in harden's canonical
// iteration order.
var attackTechs = []harden.Tech{
	harden.CFI, harden.KASan, harden.UBSan, harden.StackProtector, harden.ShadowStack,
}

// AttackLadder is the ASLR alphabet random attack spaces draw from. It
// deliberately contains incomparable pairs — more entropy without leak
// resistance versus less entropy with it — so the product order of
// isolation.ASLR.Leq is actually exercised, not just a chain.
var AttackLadder = []isolation.ASLR{
	{},
	{EntropyBits: 8},
	{EntropyBits: 16},
	{EntropyBits: 8, LeakResistant: true},
	{EntropyBits: 16, LeakResistant: true},
	{EntropyBits: 32, LeakResistant: true},
}

// AttackProfiles is the machine-profile alphabet: the default x86
// machine ("") and the RISC-V port. Configurations on distinct
// profiles are incomparable, so a random attack space splits into
// per-profile order groups — the grouped-poset regime the engine must
// keep byte-identical at every worker count.
var AttackProfiles = []string{"", "riscv"}

// RandomAttackSpace generates n random configurations over the full
// attack axis: RandomSpace's random partitions, mechanisms, gates and
// sharing strategies, plus ShadowStack-extended per-component
// hardening, a random ASLR level from AttackLadder and a random
// machine profile. Duplicates are allowed (the engine must still
// twin-fill across the new dimensions).
func RandomAttackSpace(rng *rand.Rand, n int) []*explore.Config {
	mechs := []string{"none", "intel-mpk", "vm-ept"}
	gates := []isolation.GateMode{isolation.GateLight, isolation.GateFull}
	sharings := []isolation.Sharing{isolation.ShareStack, isolation.ShareDSS, isolation.ShareHeap}
	cfgs := make([]*explore.Config, n)
	for i := range cfgs {
		h := make(map[string]harden.Set)
		for _, comp := range components {
			var ts []harden.Tech
			for _, tech := range attackTechs {
				if rng.Intn(2) == 0 {
					ts = append(ts, tech)
				}
			}
			if len(ts) > 0 {
				h[comp] = harden.NewSet(ts...)
			}
		}
		cfgs[i] = &explore.Config{
			ID:        i,
			Blocks:    randomPartition(rng),
			Hardening: h,
			Mechanism: mechs[rng.Intn(len(mechs))],
			GateMode:  gates[rng.Intn(len(gates))],
			Sharing:   sharings[rng.Intn(len(sharings))],
			ASLR:      AttackLadder[rng.Intn(len(AttackLadder))],
			Profile:   AttackProfiles[rng.Intn(len(AttackProfiles))],
		}
	}
	return cfgs
}

// RandomProductSpace crosses random images with a random sub-ladder of
// at least two rungs drawn from ladder, in attack.Space's order: per
// base, every rung, then the base's hardening variants (as is, and
// with ShadowStack on every component). It returns images distinct
// images, the last base contributing one variant when images is odd,
// all on one random machine profile, so the space is one order group
// that is a full product of its images and the sub-ladder. The
// mechanisms include cheri and intel-sgx, which tie with intel-mpk and
// vm-ept in strength, and a third of the bases copy an earlier base
// with its mechanism swapped for its tie, so distinct images order both
// ways.
func RandomProductSpace(rng *rand.Rand, images int, ladder []isolation.ASLR) []*explore.Config {
	mechs := []string{"none", "intel-mpk", "vm-ept", "cheri", "intel-sgx"}
	tie := map[string]string{"intel-mpk": "cheri", "cheri": "intel-mpk", "vm-ept": "intel-sgx", "intel-sgx": "vm-ept"}
	gates := []isolation.GateMode{isolation.GateLight, isolation.GateFull}
	sharings := []isolation.Sharing{isolation.ShareStack, isolation.ShareDSS, isolation.ShareHeap}
	var rungs []isolation.ASLR
	for len(rungs) < 2 {
		rungs = rungs[:0]
		for _, a := range ladder {
			if rng.Intn(2) == 0 {
				rungs = append(rungs, a)
			}
		}
	}
	profile := AttackProfiles[rng.Intn(len(AttackProfiles))]
	shadow := harden.NewSet(harden.ShadowStack)
	seen := map[string]bool{}
	var bases [][]*explore.Config // each base's variants
	for made := 0; made < images; {
		h := make(map[string]harden.Set)
		for _, comp := range components {
			var ts []harden.Tech
			for _, tech := range techs {
				if rng.Intn(3) == 0 {
					ts = append(ts, tech)
				}
			}
			if len(ts) > 0 {
				h[comp] = harden.NewSet(ts...)
			}
		}
		base := &explore.Config{
			Blocks:    randomPartition(rng),
			Hardening: h,
			Mechanism: mechs[rng.Intn(len(mechs))],
			GateMode:  gates[rng.Intn(len(gates))],
			Sharing:   sharings[rng.Intn(len(sharings))],
			Profile:   profile,
		}
		if len(bases) > 0 && rng.Intn(3) == 0 {
			twin := *bases[rng.Intn(len(bases))][0]
			twin.Mechanism = tie[twin.Mechanism]
			base, h = &twin, twin.Hardening
		}
		shadowed := *base
		shadowed.Hardening = make(map[string]harden.Set, len(components))
		for _, comp := range components {
			shadowed.Hardening[comp] = h[comp].Union(shadow)
		}
		variants := []*explore.Config{base, &shadowed}[:min(2, images-made)]
		fresh := true
		for _, v := range variants {
			fresh = fresh && !seen[v.ImageKey()]
		}
		if !fresh {
			continue
		}
		for _, v := range variants {
			seen[v.ImageKey()] = true
		}
		bases = append(bases, variants)
		made += len(variants)
	}
	out := make([]*explore.Config, 0, images*len(rungs))
	for _, variants := range bases {
		for _, a := range rungs {
			for _, v := range variants {
				n := *v
				n.ID = len(out)
				n.ASLR = a
				out = append(out, &n)
			}
		}
	}
	return out
}

// SurvivalMeasure extends VectorMeasure with a brute-force survival
// scorer: survival is an independent additive rank over exactly the
// dimensions explore.Leq compares — compartment count, mechanism
// strength, gate and sharing ranks, per-component hardening techs,
// ASLR entropy bits and leak resistance — with random positive
// weights, normalized into (0, 1]. Every dimension contributes
// non-negatively and the profile never compares across groups, so
// a ≤ b implies Survival(a) <= Survival(b): the dominance oracle the
// attack subsystem's ordering and filter-only-constraint proofs run
// against, with none of its multiplicative machinery.
func SurvivalMeasure(rng *rand.Rand) explore.MeasureMetrics {
	vec := VectorMeasure(rng)
	wComp := float64(rng.Intn(200) + 1)
	wStrength := float64(rng.Intn(300) + 1)
	wGate := float64(rng.Intn(50) + 1)
	wShare := float64(rng.Intn(50) + 1)
	wBits := float64(rng.Intn(10) + 1)
	wLeak := float64(rng.Intn(100) + 1)
	wTech := make(map[harden.Tech]float64, len(attackTechs))
	total := wComp*float64(len(components)-1) + wStrength*2 + wGate + wShare +
		wBits*float64(isolation.MaxEntropyBits) + wLeak
	for _, tech := range attackTechs {
		w := float64(rng.Intn(40) + 1)
		wTech[tech] = w
		total += w * float64(len(components))
	}
	return func(c *explore.Config) (explore.Metrics, error) {
		mx, err := vec(c)
		if err != nil {
			return mx, err
		}
		rank := wComp*float64(c.NumCompartments()-1) +
			wStrength*float64(mechStrength(c)) +
			wGate*float64(gateRank(c)) +
			wShare*float64(sharingRank(c)) +
			wBits*float64(c.ASLR.EntropyBits)
		if c.ASLR.LeakResistant {
			rank += wLeak
		}
		for _, comp := range c.Components() {
			for _, tech := range attackTechs {
				if c.Hardening[comp].Has(tech) {
					rank += wTech[tech]
				}
			}
		}
		mx.Survival = (1 + rank) / (1 + total)
		return mx, nil
	}
}

// SurvivalFloor builds a survival>=bound constraint with the bound
// drawn from an exhaustive result's measured survival distribution —
// in its natural direction, which for survival is deliberately never
// monotone-prunable (a floor must filter, not prune, because
// violations live at the UNSAFE end of the order).
func SurvivalFloor(rng *rand.Rand, oracle *explore.Result) explore.Constraint {
	vals := make([]float64, 0, len(oracle.Measurements))
	for _, m := range oracle.Measurements {
		vals = append(vals, m.Metrics.Survival)
	}
	return explore.Constraint{
		Metric: scenario.MetricSurvival,
		Op:     explore.NaturalOp(scenario.MetricSurvival),
		Bound:  quantile(vals, 0.25+rng.Float64()/2),
	}
}

// quantile picks a bound inside the observed range of a metric so
// constraints are neither trivially empty nor trivially full.
func quantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// RandomConstraint builds a constraint on a random metric with a bound
// drawn from an exhaustive result's measured distribution. Mixing
// directions is the point: half the time the natural (prunable)
// direction, half the time the unnatural one.
func RandomConstraint(rng *rand.Rand, oracle *explore.Result) explore.Constraint {
	metrics := []explore.Metric{
		scenario.MetricThroughput, scenario.MetricP50, scenario.MetricP99,
		scenario.MetricMax, scenario.MetricPeakMem, scenario.MetricBoot,
	}
	m := metrics[rng.Intn(len(metrics))]
	vals := make([]float64, 0, len(oracle.Measurements))
	for _, mm := range oracle.Measurements {
		vals = append(vals, m.Value(mm.Metrics))
	}
	op := explore.NaturalOp(m)
	if rng.Intn(2) == 0 {
		if op == explore.AtLeast {
			op = explore.AtMost
		} else {
			op = explore.AtLeast
		}
	}
	return explore.Constraint{Metric: m, Op: op, Bound: quantile(vals, 0.25+rng.Float64()/2)}
}
