package mem

import "flexos/internal/machine"

// KASanAllocator wraps a compartment's allocator with KASan
// instrumentation: allocations get 16-byte poisoned redzones on both sides
// and freed blocks are re-poisoned (quarantine), so out-of-bounds and
// use-after-free accesses fault through the address-space shadow.
//
// This is the concrete realization of the paper's observation (§4.5) that
// "many SH schemes work by instrumenting the memory allocator, and we use
// FlexOS' capacity to have an allocator per-compartment to enable flexible
// SH": wrapping only one compartment's allocator instruments only that
// compartment.
//
// The wrapper owns its inner allocator: every inner block is one live
// allocation, its raw address RedzoneSize below the user address, so
// the inner allocator's own bookkeeping tells valid user addresses
// apart and the wrapper keeps none.
type KASanAllocator struct {
	inner *TLSF
	as    *AddrSpace
	mach  *machine.Machine
	stats AllocStats
}

// RedzoneSize is the poisoned guard placed on each side of an allocation.
const RedzoneSize = 16

// kasanAllocOverheadCycles is the extra bookkeeping charged per allocation
// for shadow poisoning, on top of the wrapped allocator's own cost.
const kasanAllocOverheadCycles = 34

// NewKASanAllocator wraps inner, which no one else may allocate from
// or free to. It enables the address space's shadow.
func NewKASanAllocator(inner *TLSF, as *AddrSpace, m *machine.Machine) *KASanAllocator {
	as.EnableShadow()
	return &KASanAllocator{inner: inner, as: as, mach: m}
}

// Alloc implements Allocator: it over-allocates for the two redzones,
// poisons them, and unpoisons the user region.
func (k *KASanAllocator) Alloc(n int) (uintptr, error) {
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
	k.mach.Charge(kasanAllocOverheadCycles)
	k.stats.Allocs++
	k.stats.BytesLive += uint64(n)
	if k.stats.BytesLive > k.stats.BytesPeak {
		k.stats.BytesPeak = k.stats.BytesLive
	}
	return user, nil
}

// Free implements Allocator: the whole block is poisoned as freed before
// being returned, so dangling accesses fault.
func (k *KASanAllocator) Free(user uintptr) error {
	raw := user - RedzoneSize
	n, ok := k.inner.SizeOf(raw)
	if !ok {
		return ErrBadFree
	}
	k.as.Poison(raw, n, true)
	k.stats.Frees++
	if sz := n - 2*RedzoneSize; sz > 0 {
		k.stats.BytesLive -= uint64(sz)
	}
	k.mach.Charge(kasanAllocOverheadCycles / 2)
	return k.inner.Free(raw)
}

// SizeOf implements Allocator.
func (k *KASanAllocator) SizeOf(user uintptr) (int, bool) {
	n, ok := k.inner.SizeOf(user - RedzoneSize)
	if !ok {
		return 0, false
	}
	return n - 2*RedzoneSize, true
}

// Name implements Allocator.
func (k *KASanAllocator) Name() string { return "kasan+" + k.inner.Name() }

// Stats implements Allocator.
func (k *KASanAllocator) Stats() AllocStats { return k.stats }
