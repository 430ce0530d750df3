package mem

import (
	"math"
	"math/bits"

	"flexos/internal/machine"
)

// TLSF is a simplified two-level segregated-fit allocator modeled on the
// TLSF allocator Unikraft ships (Masmano et al., cited by the paper). It
// provides near-constant allocation cost: free blocks are kept in
// power-of-two size-class lists; allocation pops the matching class or
// splits the smallest larger block.
//
// Cycle accounting: the fast path (exact class hit) charges
// Costs.HeapAllocFast; a split from a larger class charges a bit more; a
// carve from the wilderness charges the slow path. This reproduces the
// 100-300+ cycle band of Figure 11a.
//
// Block bookkeeping lives in one slot table with an int32 per
// allocAlign-byte slot of the carved part of the arena, [Base, brk): a
// positive value is an allocated block's usable size, a negative value
// a free block's total size, and zero no block start. The table grows
// with brk, so its host cost follows what the simulated heap has used.
type TLSF struct {
	arena Arena
	mach  *machine.Machine

	classes [48][]uintptr // free lists per log2 size class
	slots   []int32       // block at Base+i*allocAlign: size (+), free total (-) or none (0)
	brk     uintptr       // wilderness pointer
	stats   AllocStats
}

// NewTLSF returns a TLSF allocator over the arena. Block sizes are kept
// as int32, so the arena must be smaller than 2 GiB.
func NewTLSF(arena Arena, m *machine.Machine) *TLSF {
	t := new(TLSF)
	t.Reset(arena, m)
	return t
}

// Reset makes t an empty allocator over arena that charges m: no block
// allocated or free, brk at the arena's base, counters zeroed. A zero
// TLSF may be reset. Reset keeps the host capacity of the free lists
// and the slot table, clearing the slot table to its full capacity so
// a later carve, which only reslices while the capacity lasts, never
// sees a stale slot.
func (t *TLSF) Reset(arena Arena, m *machine.Machine) {
	if arena.Size > math.MaxInt32 {
		panic("mem: TLSF arena of 2 GiB or more")
	}
	for i := range t.classes {
		t.classes[i] = t.classes[i][:0]
	}
	clear(t.slots[:cap(t.slots)])
	*t = TLSF{arena: arena, mach: m, classes: t.classes, slots: t.slots[:0], brk: arena.Base}
}

// carve advances brk by n bytes and extends the slot table to cover
// them, growing its capacity geometrically up to the whole arena.
func (t *TLSF) carve(n uintptr) {
	t.brk += n
	want := int((t.brk - t.arena.Base) / allocAlign)
	if want > cap(t.slots) {
		limit := int(t.arena.Size / allocAlign)
		grown := make([]int32, len(t.slots), min(max(want, 2*cap(t.slots), 64), limit))
		copy(grown, t.slots)
		t.slots = grown
	}
	t.slots = t.slots[:want]
}

// at returns the slot of the block starting at addr, which must be an
// aligned address in [Base, brk).
func (t *TLSF) at(addr uintptr) *int32 {
	return &t.slots[(addr-t.arena.Base)/allocAlign]
}

func sizeClass(n uintptr) int {
	if n <= allocAlign {
		return 4
	}
	return bits.Len(uint(n - 1))
}

// Alloc implements Allocator.
func (t *TLSF) Alloc(n int) (uintptr, error) {
	if n <= 0 {
		n = 1
	}
	need := alignUp(uintptr(n), allocAlign)
	cls := sizeClass(need)

	// Fast path: exact class has a free block.
	if lst := t.classes[cls]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		t.classes[cls] = lst[:len(lst)-1]
		t.mach.Charge(t.mach.Costs.HeapAllocFast)
		t.finish(addr, n)
		return addr, nil
	}
	// Medium path: split a larger free block.
	for c := cls + 1; c < len(t.classes); c++ {
		lst := t.classes[c]
		if len(lst) == 0 {
			continue
		}
		addr := lst[len(lst)-1]
		t.classes[c] = lst[:len(lst)-1]
		total := uintptr(-*t.at(addr))
		blockSz := uintptr(1) << uint(cls)
		if rem := total - blockSz; rem >= allocAlign {
			remAddr := addr + blockSz
			t.insertFree(remAddr, int(rem))
		}
		t.mach.Charge(t.mach.Costs.HeapAllocFast + (t.mach.Costs.HeapAllocFast / 2))
		t.finish(addr, n)
		return addr, nil
	}
	// Slow path: carve from the wilderness.
	blockSz := uintptr(1) << uint(cls)
	if t.brk+blockSz > t.arena.Base+t.arena.Size {
		return 0, ErrOutOfMemory
	}
	addr := t.brk
	t.carve(blockSz)
	t.mach.Charge(t.mach.Costs.HeapAllocFast + t.mach.Costs.HeapAllocFast/4)
	t.finish(addr, n)
	return addr, nil
}

// finish records the allocated block at addr and counts it.
func (t *TLSF) finish(addr uintptr, n int) {
	*t.at(addr) = int32(n)
	t.stats.Allocs++
	t.stats.BytesLive += uint64(n)
	if t.stats.BytesLive > t.stats.BytesPeak {
		t.stats.BytesPeak = t.stats.BytesLive
	}
}

func (t *TLSF) insertFree(addr uintptr, total int) {
	cls := sizeClass(uintptr(total))
	// Insert into the class whose blocks are guaranteed >= requested size:
	// a block of `total` bytes serves class floor(log2(total)).
	if uintptr(1)<<uint(cls) > uintptr(total) {
		cls--
	}
	if cls < 0 {
		return
	}
	t.classes[cls] = append(t.classes[cls], addr)
	*t.at(addr) = int32(-total)
}

// Free implements Allocator.
func (t *TLSF) Free(addr uintptr) error {
	n, ok := t.SizeOf(addr)
	if !ok {
		return ErrBadFree
	}
	total := alignUp(uintptr(n), allocAlign)
	cls := sizeClass(total)
	t.classes[cls] = append(t.classes[cls], addr)
	*t.at(addr) = -int32(uintptr(1) << uint(cls))
	t.stats.Frees++
	t.stats.BytesLive -= uint64(n)
	t.mach.Charge(t.mach.Costs.HeapFree)
	return nil
}

// SizeOf implements Allocator.
// An address that is unaligned, below the arena or at or above brk is
// no block.
func (t *TLSF) SizeOf(addr uintptr) (int, bool) {
	if addr < t.arena.Base || addr >= t.brk || (addr-t.arena.Base)%allocAlign != 0 {
		return 0, false
	}
	if n := *t.at(addr); n > 0 {
		return int(n), true
	}
	return 0, false
}

// Name implements Allocator.
func (t *TLSF) Name() string { return "tlsf" }

// Stats implements Allocator.
func (t *TLSF) Stats() AllocStats { return t.stats }
