package mem

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"flexos/internal/machine"
)

// The allocator differential test drives the slot-table TLSF and the
// map-free KASan wrapper beside the map-based implementations they
// replaced, kept below as the oracle, with the same seeded alloc/free
// sequences. After every step it compares the returned address and
// error, SizeOf, Stats(), the machine's cycle clock and the KASan
// shadow of the whole address space.

// mapTLSF is the map-based TLSF: allocated blocks and free blocks in
// two Go maps keyed by address.
type mapTLSF struct {
	arena   Arena
	mach    *machine.Machine
	classes [48][]uintptr
	blocks  map[uintptr]int // allocated block -> usable size
	freesz  map[uintptr]int // free block -> total size
	brk     uintptr
	stats   AllocStats
}

func newMapTLSF(arena Arena, m *machine.Machine) *mapTLSF {
	return &mapTLSF{
		arena: arena, mach: m, brk: arena.Base,
		blocks: make(map[uintptr]int), freesz: make(map[uintptr]int),
	}
}

func (t *mapTLSF) Alloc(n int) (uintptr, error) {
	if n <= 0 {
		n = 1
	}
	need := alignUp(uintptr(n), allocAlign)
	cls := sizeClass(need)
	if lst := t.classes[cls]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		t.classes[cls] = lst[:len(lst)-1]
		delete(t.freesz, addr)
		t.mach.Charge(t.mach.Costs.HeapAllocFast)
		t.finish(addr, n)
		return addr, nil
	}
	for c := cls + 1; c < len(t.classes); c++ {
		lst := t.classes[c]
		if len(lst) == 0 {
			continue
		}
		addr := lst[len(lst)-1]
		t.classes[c] = lst[:len(lst)-1]
		total := uintptr(t.freesz[addr])
		delete(t.freesz, addr)
		blockSz := uintptr(1) << uint(cls)
		if rem := total - blockSz; rem >= allocAlign {
			t.insertFree(addr+blockSz, int(rem))
		}
		t.mach.Charge(t.mach.Costs.HeapAllocFast + (t.mach.Costs.HeapAllocFast / 2))
		t.finish(addr, n)
		return addr, nil
	}
	blockSz := uintptr(1) << uint(cls)
	if t.brk+blockSz > t.arena.Base+t.arena.Size {
		return 0, ErrOutOfMemory
	}
	addr := t.brk
	t.brk += blockSz
	t.mach.Charge(t.mach.Costs.HeapAllocFast + t.mach.Costs.HeapAllocFast/4)
	t.finish(addr, n)
	return addr, nil
}

func (t *mapTLSF) finish(addr uintptr, n int) {
	t.blocks[addr] = n
	t.stats.Allocs++
	t.stats.BytesLive += uint64(n)
	if t.stats.BytesLive > t.stats.BytesPeak {
		t.stats.BytesPeak = t.stats.BytesLive
	}
}

func (t *mapTLSF) insertFree(addr uintptr, total int) {
	cls := sizeClass(uintptr(total))
	if uintptr(1)<<uint(cls) > uintptr(total) {
		cls--
	}
	if cls < 0 {
		return
	}
	t.classes[cls] = append(t.classes[cls], addr)
	t.freesz[addr] = total
}

func (t *mapTLSF) Free(addr uintptr) error {
	n, ok := t.blocks[addr]
	if !ok {
		return ErrBadFree
	}
	delete(t.blocks, addr)
	cls := sizeClass(alignUp(uintptr(n), allocAlign))
	t.classes[cls] = append(t.classes[cls], addr)
	t.freesz[addr] = int(uintptr(1) << uint(cls))
	t.stats.Frees++
	t.stats.BytesLive -= uint64(n)
	t.mach.Charge(t.mach.Costs.HeapFree)
	return nil
}

func (t *mapTLSF) SizeOf(addr uintptr) (int, bool) {
	n, ok := t.blocks[addr]
	return n, ok
}

func (t *mapTLSF) Name() string      { return "tlsf" }
func (t *mapTLSF) Stats() AllocStats { return t.stats }

// mapKASan is the KASan wrapper that maps each user address to its raw
// block address.
type mapKASan struct {
	inner Allocator
	as    *AddrSpace
	mach  *machine.Machine
	stats AllocStats
	raw   map[uintptr]uintptr
}

func newMapKASan(inner Allocator, as *AddrSpace, m *machine.Machine) *mapKASan {
	as.EnableShadow()
	return &mapKASan{inner: inner, as: as, mach: m, raw: make(map[uintptr]uintptr)}
}

func (k *mapKASan) Alloc(n int) (uintptr, error) {
	if n <= 0 {
		n = 1
	}
	raw, err := k.inner.Alloc(n + 2*RedzoneSize)
	if err != nil {
		return 0, err
	}
	user := raw + RedzoneSize
	k.as.Poison(raw, RedzoneSize, false)
	k.as.Unpoison(user, n)
	k.as.Poison(user+uintptr(n), RedzoneSize, false)
	k.raw[user] = raw
	k.mach.Charge(kasanAllocOverheadCycles)
	k.stats.Allocs++
	k.stats.BytesLive += uint64(n)
	if k.stats.BytesLive > k.stats.BytesPeak {
		k.stats.BytesPeak = k.stats.BytesLive
	}
	return user, nil
}

func (k *mapKASan) Free(user uintptr) error {
	raw, ok := k.raw[user]
	if !ok {
		return ErrBadFree
	}
	n, _ := k.inner.SizeOf(raw)
	k.as.Poison(raw, n, true)
	delete(k.raw, user)
	k.stats.Frees++
	if sz := n - 2*RedzoneSize; sz > 0 {
		k.stats.BytesLive -= uint64(sz)
	}
	k.mach.Charge(kasanAllocOverheadCycles / 2)
	return k.inner.Free(raw)
}

func (k *mapKASan) SizeOf(user uintptr) (int, bool) {
	raw, ok := k.raw[user]
	if !ok {
		return 0, false
	}
	n, ok := k.inner.SizeOf(raw)
	if !ok {
		return 0, false
	}
	return n - 2*RedzoneSize, true
}

func (k *mapKASan) Name() string      { return "kasan+" + k.inner.Name() }
func (k *mapKASan) Stats() AllocStats { return k.stats }

// allocSide is one allocator under test with its machine and space.
type allocSide struct {
	al   Allocator
	mach *machine.Machine
	as   *AddrSpace
}

// Arena geometry of the differential test: the arena starts above
// address zero, so frees below it are expressible, and ends below the
// end of the space, so frees past it are too.
const (
	diffArenaBase  = 3 * PageSize
	diffArenaPages = 16
	diffSpacePages = 24
)

func newAllocSide(t *testing.T, kasan, oracle bool) allocSide {
	t.Helper()
	m := machine.New(machine.DefaultCosts())
	as := NewAddrSpace("heap", diffSpacePages*PageSize, m)
	arena, err := NewArena(as, diffArenaBase, diffArenaPages*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var al Allocator
	switch {
	case oracle && kasan:
		al = newMapKASan(newMapTLSF(arena, m), as, m)
	case oracle:
		al = newMapTLSF(arena, m)
	case kasan:
		al = NewKASanAllocator(NewTLSF(arena, m), as, m)
	default:
		al = NewTLSF(arena, m)
	}
	return allocSide{al: al, mach: m, as: as}
}

// recycledAllocSide returns a TLSF (KASan-wrapped when kasan is set)
// over the differential test's arena that, with its space, first
// served a prior run: a KASan heap over a larger arena at another
// base, whose allocations, frees, poison and written bytes leave the
// slot table grown past the test arena and the free lists and shadow
// full. Both are then reset to charge a new machine.
func recycledAllocSide(t *testing.T, kasan bool, seed uint64) allocSide {
	t.Helper()
	m := machine.New(machine.DefaultCosts())
	as := NewAddrSpace("heap", diffSpacePages*PageSize, m)
	prior, err := NewArena(as, 0, (diffArenaPages+6)*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTLSF(prior, m)
	k := NewKASanAllocator(tl, as, m)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var live []uintptr
	for range 600 {
		if len(live) > 0 && rng.IntN(3) == 0 {
			i := rng.IntN(len(live))
			if err := k.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			continue
		}
		n := 1 + rng.IntN(700)
		addr, err := k.Alloc(n)
		if err != nil {
			continue
		}
		live = append(live, addr)
		if err := as.Write(PKRUAllowAll, addr, bytes.Repeat([]byte{0xa5}, n)); err != nil {
			t.Fatal(err)
		}
	}

	m = machine.New(machine.DefaultCosts())
	as.Reset(m)
	arena, err := NewArena(as, diffArenaBase, diffArenaPages*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tl.Reset(arena, m)
	var al Allocator = tl
	if kasan {
		al = NewKASanAllocator(tl, as, m)
	}
	return allocSide{al: al, mach: m, as: as}
}

// shadowOf flattens a space's KASan shadow, one byte per granule.
func shadowOf(as *AddrSpace) []byte {
	out := make([]byte, as.Pages()*granulesPerPage)
	for p := range as.Pages() {
		if pg := as.page(uintptr(p)); pg != nil && pg.shadow != nil {
			copy(out[p*granulesPerPage:], pg.shadow[:])
		}
	}
	return out
}

// Allocation paths, told apart by what an Alloc charges under the
// default cost model.
const (
	pathFast = iota
	pathSplit
	pathCarve
	pathExhausted
	numPaths
)

func allocPath(costs machine.CostModel, charged uint64, kasan bool, err error) int {
	if err != nil {
		return pathExhausted
	}
	if kasan {
		charged -= kasanAllocOverheadCycles
	}
	switch fast := costs.HeapAllocFast; charged {
	case fast:
		return pathFast
	case fast + fast/2:
		return pathSplit
	default:
		return pathCarve
	}
}

// TestAllocatorsMatchMapOracle runs seeded alloc/free sequences against
// the TLSF and KASan allocators and their map-based oracles.
func TestAllocatorsMatchMapOracle(t *testing.T) {
	const (
		seeds = 24
		steps = 2500
	)
	for _, kasan := range []bool{false, true} {
		for seed := uint64(1); seed <= seeds; seed++ {
			name := fmt.Sprintf("tlsf/seed%d", seed)
			if kasan {
				name = fmt.Sprintf("kasan/seed%d", seed)
			}
			t.Run(name, func(t *testing.T) {
				paths := runAllocDiff(t, seed, steps, newAllocSide(t, kasan, false), kasan)
				for path, n := range paths {
					if n == 0 {
						t.Errorf("allocation path %d never taken (fast, split, carve, exhausted: %v)", path, paths)
					}
				}
			})
		}
	}
}

// TestResetAllocatorsMatchMapOracle runs the same sequences against
// reset allocators: each must match the oracle, as a new one does.
func TestResetAllocatorsMatchMapOracle(t *testing.T) {
	const (
		seeds = 12
		steps = 2500
	)
	for _, kasan := range []bool{false, true} {
		for seed := uint64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("kasan=%v/seed%d", kasan, seed), func(t *testing.T) {
				runAllocDiff(t, seed, steps, recycledAllocSide(t, kasan, seed), kasan)
			})
		}
	}
}

// runAllocDiff drives got and a new oracle of the same flavour with the
// seeded sequence and compares every result, charge and shadow byte.
func runAllocDiff(t *testing.T, seed uint64, steps int, got allocSide, kasan bool) (paths [numPaths]int) {
	want := newAllocSide(t, kasan, true)
	rng := rand.New(rand.NewPCG(seed, seed*0x9e3779b97f4a7c15))
	var live, freed []uintptr
	// pick draws an address to free or size: live and freed blocks and
	// the interesting invalid neighbours of either.
	pick := func() (uintptr, string) {
		var base uintptr
		switch {
		case len(live) > 0 && (len(freed) == 0 || rng.IntN(3) != 0):
			base = live[rng.IntN(len(live))]
		case len(freed) > 0:
			base = freed[rng.IntN(len(freed))]
		default:
			base = diffArenaBase
		}
		switch r := rng.IntN(24); {
		case r < 12:
			return base, "block"
		case r < 14:
			return base + uintptr(1+rng.IntN(allocAlign-1)), "unaligned"
		case r < 16:
			return base - RedzoneSize, "raw" // the raw address of a KASan block
		case r < 18:
			return base + allocAlign*uintptr(1+rng.IntN(4)), "interior"
		case r < 19:
			return uintptr(rng.IntN(diffArenaBase/allocAlign)) * allocAlign, "below arena"
		case r < 21:
			return diffArenaBase + diffArenaPages*PageSize + uintptr(rng.IntN(4))*allocAlign, "past arena"
		case r < 22:
			return ^uintptr(0) - uintptr(rng.IntN(64)), "wrapped"
		default:
			return diffArenaBase + uintptr(rng.IntN(diffArenaPages*PageSize/allocAlign))*allocAlign, "anywhere"
		}
	}
	for step := 0; step < steps; step++ {
		var op string
		c0, w0 := got.mach.Clock.Cycles(), want.mach.Clock.Cycles()
		switch r := rng.IntN(100); {
		case r < 55:
			var n int
			switch s := rng.IntN(20); {
			case s < 10:
				n = rng.IntN(65) // includes 0: rounded up to one byte
			case s < 17:
				n = 1 + rng.IntN(2048)
			case s < 19:
				n = 1 + rng.IntN(diffArenaPages*PageSize/4)
			default:
				n = -rng.IntN(4)
			}
			op = fmt.Sprintf("Alloc(%d)", n)
			ga, gerr := got.al.Alloc(n)
			wa, werr := want.al.Alloc(n)
			if ga != wa || gerr != werr {
				t.Fatalf("step %d %s: got %#x, %v; oracle %#x, %v", step, op, ga, gerr, wa, werr)
			}
			paths[allocPath(got.mach.Costs, got.mach.Clock.Cycles()-c0, kasan, gerr)]++
			if gerr == nil {
				live = append(live, ga)
			}
		case r < 90:
			addr, what := pick()
			op = fmt.Sprintf("Free(%#x %s)", addr, what)
			gerr, werr := got.al.Free(addr), want.al.Free(addr)
			if gerr != werr {
				t.Fatalf("step %d %s: got %v; oracle %v", step, op, gerr, werr)
			}
			if gerr == nil {
				i := 0
				for live[i] != addr {
					i++
				}
				live = append(live[:i], live[i+1:]...)
				freed = append(freed, addr)
			}
		default:
			addr, what := pick()
			op = fmt.Sprintf("SizeOf(%#x %s)", addr, what)
			gn, gok := got.al.SizeOf(addr)
			wn, wok := want.al.SizeOf(addr)
			if gn != wn || gok != wok {
				t.Fatalf("step %d %s: got %d, %v; oracle %d, %v", step, op, gn, gok, wn, wok)
			}
		}
		if g, w := got.al.Stats(), want.al.Stats(); g != w {
			t.Fatalf("step %d %s: stats %+v, oracle %+v", step, op, g, w)
		}
		if g, w := got.mach.Clock.Cycles()-c0, want.mach.Clock.Cycles()-w0; g != w {
			t.Fatalf("step %d %s: charged %d cycles, oracle %d", step, op, g, w)
		}
		if kasan && !bytes.Equal(shadowOf(got.as), shadowOf(want.as)) {
			t.Fatalf("step %d %s: shadow differs from the oracle's", step, op)
		}
	}
	// Every live block still sizes the same.
	for _, addr := range live {
		gn, gok := got.al.SizeOf(addr)
		wn, wok := want.al.SizeOf(addr)
		if gn != wn || gok != wok || !gok {
			t.Fatalf("live %#x: got %d, %v; oracle %d, %v", addr, gn, gok, wn, wok)
		}
	}
	if g, w := got.mach.Clock.Cycles(), want.mach.Clock.Cycles(); g != w {
		t.Fatalf("clock %d cycles, oracle %d", g, w)
	}
	return paths
}

// TestTLSFSlotTableGrowsWithBrk pins the host cost of the slot table: it
// covers what the wilderness pointer has carved, not the arena.
func TestTLSFSlotTableGrowsWithBrk(t *testing.T) {
	a, m := newArena(t, 512)
	tl := NewTLSF(a, m)
	if cap(tl.slots) != 0 {
		t.Fatalf("fresh TLSF has %d slots", cap(tl.slots))
	}
	for range 100 {
		if _, err := tl.Alloc(40); err != nil {
			t.Fatal(err)
		}
	}
	used := int((tl.brk - a.Base) / allocAlign)
	if len(tl.slots) != used || cap(tl.slots) > 2*used {
		t.Fatalf("slots len %d cap %d for %d carved slots", len(tl.slots), cap(tl.slots), used)
	}
}
