package explore

import (
	"fmt"
	"hash/fnv"
	"sync"

	"flexos/internal/harden"
	"flexos/internal/isolation"
)

// Space is an enumerated configuration space together with the work
// every exploration of it repeats: each configuration's canonical key
// (Config.Key), rendered once; the canonical-twin grouping (identical
// configurations measure once per run); and the grouped safety order,
// built on first use. A Space is immutable and safe for concurrent
// use, so a serving daemon can build one per distinct space and answer
// every request over it without enumerating, keying or ordering the
// configurations again. Its configurations must not be modified after
// NewSpace.
type Space struct {
	cfgs  []*Config
	keys  []string
	canon []int32           // each configuration's lowest-index identical twin
	twins map[int32][]int32 // canonical index -> its later identical twins

	// base and lo place a shard's slice in the Space it was cut from,
	// whose memo-key and label caches the shard reads.
	base *Space
	lo   int

	orderOnce sync.Once
	order     *spaceOrder

	hashMu sync.Mutex
	hashes map[string]string // Hash by workload, at most maxHashes

	memoMu   sync.Mutex
	memoKeys map[string][]string // memo keys by workload, at most maxMemoKeySets

	labelsOnce sync.Once
	labels     []string
}

// maxHashes bounds the hashes a Space remembers. A serving mix names a
// few workloads per space (one per op count); past the bound the
// remembered hashes are dropped and recomputed on demand.
const maxHashes = 64

// maxMemoKeySets bounds the workloads whose memo keys a Space keeps
// rendered. One set holds a key per configuration — about as many bytes
// as the Space's own keys, 280 KB for the 960-point attack space — so
// the bound is far lower than maxHashes; past it the sets are dropped
// and rendered again on demand.
const maxMemoKeySets = 4

// emptySpace is the Space of a request that names none.
var emptySpace = NewSpace(nil)

// NewSpace wraps an enumerated configuration space, rendering every
// canonical key.
func NewSpace(cfgs []*Config) *Space {
	keys := make([]string, len(cfgs))
	for i, c := range cfgs {
		keys[i] = c.Key()
	}
	return newSpace(cfgs, keys)
}

// newSpace groups the configurations by key. Only the lowest-index
// member of each group is measured; its twins inherit the value.
// Identical configurations occupy the same poset position (same
// predecessor sets), so their pruning decisions always agree.
func newSpace(cfgs []*Config, keys []string) *Space {
	s := &Space{cfgs: cfgs, keys: keys, canon: make([]int32, len(cfgs))}
	group := make(map[string]int32, len(cfgs))
	for i, k := range keys {
		if first, ok := group[k]; ok {
			s.canon[i] = first
			if s.twins == nil {
				s.twins = make(map[int32][]int32)
			}
			s.twins[first] = append(s.twins[first], int32(i))
		} else {
			group[k] = int32(i)
			s.canon[i] = int32(i)
		}
	}
	return s
}

// Len returns the number of configurations.
func (s *Space) Len() int { return len(s.cfgs) }

// Configs returns the configurations in enumeration order. The slice
// is the Space's own: read it, never modify it.
func (s *Space) Configs() []*Config { return s.cfgs }

// Key returns configuration i's canonical key.
func (s *Space) Key(i int) string { return s.keys[i] }

// memoKeysOf returns every configuration's memo key under workload
// (MemoKey, in enumeration order), rendering them on the first request
// for that workload. A shard reads the slice of the Space it was cut
// from, so its keys outlive the run. The slice is shared: read it,
// never modify it.
func (s *Space) memoKeysOf(workload string) []string {
	if s.base != nil {
		return s.base.memoKeysOf(workload)[s.lo : s.lo+len(s.cfgs)]
	}
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if mk, ok := s.memoKeys[workload]; ok {
		return mk
	}
	mk := make([]string, len(s.keys))
	for i, k := range s.keys {
		mk[i] = memoKey(workload, k)
	}
	if len(s.memoKeys) >= maxMemoKeySets || s.memoKeys == nil {
		s.memoKeys = make(map[string][]string)
	}
	s.memoKeys[workload] = mk
	return mk
}

// label returns configuration i's Config.Label, rendered once for the
// whole space on first use.
func (s *Space) label(i int) string {
	if s.base != nil {
		return s.base.label(s.lo + i)
	}
	s.labelsOnce.Do(func() {
		s.labels = make([]string, len(s.cfgs))
		for i, c := range s.cfgs {
			s.labels[i] = c.Label()
		}
	})
	return s.labels[i]
}

// Hash digests the canonical identity of an exploration of the space —
// the memo namespace plus every configuration key, in enumeration
// order — into a 16-hex-digit FNV-1a handle. Two explorations share a
// hash exactly when they would populate the same result-store entries,
// so the hash is the natural cache key for a persistent store
// directory (CI keys its warm-explore cache on it). The Space
// remembers the hash of each workload it was asked for.
func (s *Space) Hash(workload string) string {
	s.hashMu.Lock()
	defer s.hashMu.Unlock()
	if h, ok := s.hashes[workload]; ok {
		return h
	}
	h := fnv.New64a()
	h.Write([]byte(workload))
	for _, k := range s.keys {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	sum := fmt.Sprintf("%016x", h.Sum64())
	if len(s.hashes) >= maxHashes || s.hashes == nil {
		s.hashes = make(map[string]string)
	}
	s.hashes[workload] = sum
	return sum
}

// safetyOrder returns the grouped safety order, building it on first
// use.
func (s *Space) safetyOrder() *spaceOrder {
	s.orderOnce.Do(func() { s.order = newSpaceOrder(s.cfgs) })
	return s.order
}

// shard returns the slice of the space a shard explores: the space
// itself for the whole space, otherwise a new Space over the slice,
// which reuses the rendered keys, memo keys and labels but groups and
// orders its own members — a shard's Hasse diagram is not a
// restriction of the full one.
func (s *Space) shard(sh Shard) (*Space, error) {
	if err := sh.validate(); err != nil {
		return nil, err
	}
	if sh.IsZero() {
		return s, nil
	}
	lo, hi := sh.bounds(len(s.cfgs))
	sp := newSpace(s.cfgs[lo:hi], s.keys[lo:hi])
	sp.base, sp.lo = s, lo
	return sp, nil
}

// Fig6Space generates the paper's 80-configuration space for a
// four-component application (§6.2): the five compartmentalization
// strategies of Figure 8 —
//
//	A  app+libc+sched+lwip
//	B  app+libc+sched / lwip
//	C  app+libc+lwip  / sched
//	D  app+libc / sched+lwip
//	E  app+libc / sched / lwip
//
// — times the 16 per-component on/off combinations of the hardening
// stack (stack protector + UBSan + KASan), with MPK+DSS isolation fixed,
// exactly as Figure 6 fixes it.
//
// components must be [app, libc, sched, netstack] in that order.
func Fig6Space(components [4]string) []*Config {
	app, libcN, schedN, lwipN := components[0], components[1], components[2], components[3]
	partitions := [][][]string{
		{{app, libcN, schedN, lwipN}},     // A
		{{app, libcN, schedN}, {lwipN}},   // B
		{{app, libcN, lwipN}, {schedN}},   // C
		{{app, libcN}, {schedN, lwipN}},   // D
		{{app, libcN}, {schedN}, {lwipN}}, // E
	}
	var cfgs []*Config
	id := 0
	for _, part := range partitions {
		for mask := 0; mask < 16; mask++ {
			h := make(map[string]harden.Set)
			for bit, comp := range []string{app, libcN, schedN, lwipN} {
				if mask&(1<<bit) != 0 {
					h[comp] = harden.NewSet(harden.All)
				}
			}
			cfgs = append(cfgs, &Config{
				ID:        id,
				Blocks:    part,
				Hardening: h,
				Mechanism: "intel-mpk",
				GateMode:  isolation.GateFull,
				Sharing:   isolation.ShareDSS,
			})
			id++
		}
	}
	return cfgs
}

// CrossAppSpace generates a larger, cross-application design space to
// exercise exploration at scale: for every application quadruple it
// emits the five Figure-8 partitions × 16 per-component hardening masks
// × every requested isolation mechanism — 80·len(mechanisms) points per
// application (320 for the default two-app, two-mechanism sweep).
// Varying the mechanism deepens the poset (intel-mpk sits strictly
// below vm-ept at equal structure), which gives monotonic pruning
// longer safety chains to cut; configurations of different applications
// are incomparable and explore independently. IDs are dense across the
// whole space, and points whose canonical identity coincides with a
// Fig6Space point memoize against it.
//
// Each apps element must be [app, libc, sched, netstack], as for
// Fig6Space.
func CrossAppSpace(mechanisms []string, apps ...[4]string) []*Config {
	if len(mechanisms) == 0 {
		mechanisms = []string{"intel-mpk", "vm-ept"}
	}
	var cfgs []*Config
	id := 0
	for _, components := range apps {
		for _, mech := range mechanisms {
			for _, c := range Fig6Space(components) {
				c.ID = id
				c.Mechanism = mech
				cfgs = append(cfgs, c)
				id++
			}
		}
	}
	return cfgs
}

// Fig5Space generates the poset subset Figure 5 draws: a fixed
// two-compartment strategy, varying per-compartment hardening over
// {none, CFI, ASAN, CFI+ASAN} for each of the two compartments (16
// configurations).
func Fig5Space(blockA, blockB []string) []*Config {
	levels := []harden.Set{
		{},
		harden.NewSet(harden.CFI),
		harden.NewSet(harden.KASan),
		harden.NewSet(harden.CFI, harden.KASan),
	}
	var cfgs []*Config
	id := 0
	for _, ha := range levels {
		for _, hb := range levels {
			h := make(map[string]harden.Set)
			for _, c := range blockA {
				h[c] = ha
			}
			for _, c := range blockB {
				h[c] = hb
			}
			cfgs = append(cfgs, &Config{
				ID:        id,
				Blocks:    [][]string{append([]string{}, blockA...), append([]string{}, blockB...)},
				Hardening: h,
				Mechanism: "intel-mpk",
				GateMode:  isolation.GateFull,
				Sharing:   isolation.ShareDSS,
			})
			id++
		}
	}
	return cfgs
}
