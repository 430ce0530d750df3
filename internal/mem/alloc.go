package mem

import (
	"fmt"

	"flexos/internal/machine"
)

// Allocator is the interface shared by all simulated heap allocators. Each
// compartment owns one (per-compartment heaps, §4.1) and the MPK backend
// adds one more for the shared communication domain.
//
// Allocators charge the machine clock for their own bookkeeping so that
// Figure 11a (stack vs heap allocation latency) is reproducible.
type Allocator interface {
	// Alloc reserves n bytes and returns the simulated address.
	Alloc(n int) (uintptr, error)
	// Free releases a block previously returned by Alloc.
	Free(addr uintptr) error
	// SizeOf returns the usable size of an allocated block.
	SizeOf(addr uintptr) (int, bool)
	// Name identifies the allocator family: "tlsf", "bump", or
	// "kasan+" followed by the wrapped allocator's name.
	Name() string
	// Stats returns allocation counters.
	Stats() AllocStats
}

// AllocStats counts allocator activity.
type AllocStats struct {
	Allocs, Frees uint64
	BytesLive     uint64
	BytesPeak     uint64
}

// Arena is a contiguous region of an address space handed to an allocator.
// The image builder keys the arena's pages to the owning compartment before
// use.
type Arena struct {
	AS   *AddrSpace
	Base uintptr
	Size uintptr
}

// NewArena validates and returns an arena.
func NewArena(as *AddrSpace, base, size uintptr) (Arena, error) {
	if base%PageSize != 0 {
		return Arena{}, fmt.Errorf("mem: arena base %#x not page aligned", base)
	}
	if base+size > uintptr(as.Size()) {
		return Arena{}, fmt.Errorf("mem: arena [%#x,%#x) outside address space of %d bytes", base, base+size, as.Size())
	}
	return Arena{AS: as, Base: base, Size: size}, nil
}

// Contains reports whether addr falls inside the arena.
func (a Arena) Contains(addr uintptr) bool {
	return addr >= a.Base && addr < a.Base+a.Size
}

// SetKey tags all of the arena's pages with k.
func (a Arena) SetKey(k Key) error { return a.AS.SetKeyRange(a.Base, a.Size, k) }

const allocAlign = 16

func alignUp(n uintptr, a uintptr) uintptr { return (n + a - 1) &^ (a - 1) }

// ErrOutOfMemory is returned when an arena is exhausted.
var ErrOutOfMemory = fmt.Errorf("mem: arena out of memory")

// ErrBadFree is returned when freeing an address that is not an allocated
// block.
var ErrBadFree = fmt.Errorf("mem: free of unallocated address")

// Bump is the boot-time allocator: pointer-bump allocation, no free. The
// early boot code uses it before the real allocators are up; tests use it
// for fixed layouts.
type Bump struct {
	arena Arena
	mach  *machine.Machine
	next  uintptr
	sizes map[uintptr]int
	stats AllocStats
}

// NewBump returns a bump allocator over the arena.
func NewBump(arena Arena, m *machine.Machine) *Bump {
	return &Bump{arena: arena, mach: m, next: arena.Base, sizes: make(map[uintptr]int)}
}

// Alloc implements Allocator.
func (b *Bump) Alloc(n int) (uintptr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: bump alloc of %d bytes", n)
	}
	b.mach.Charge(b.mach.Costs.StackAlloc) // bump allocation is stack-speed
	sz := alignUp(uintptr(n), allocAlign)
	if b.next+sz > b.arena.Base+b.arena.Size {
		return 0, ErrOutOfMemory
	}
	addr := b.next
	b.next += sz
	b.sizes[addr] = n
	b.stats.Allocs++
	b.stats.BytesLive += uint64(n)
	if b.stats.BytesLive > b.stats.BytesPeak {
		b.stats.BytesPeak = b.stats.BytesLive
	}
	return addr, nil
}

// Free implements Allocator; bump allocators do not reclaim.
func (b *Bump) Free(addr uintptr) error {
	if _, ok := b.sizes[addr]; !ok {
		return ErrBadFree
	}
	b.stats.Frees++
	return nil
}

// SizeOf implements Allocator.
func (b *Bump) SizeOf(addr uintptr) (int, bool) {
	n, ok := b.sizes[addr]
	return n, ok
}

// Name implements Allocator.
func (b *Bump) Name() string { return "bump" }

// Stats implements Allocator.
func (b *Bump) Stats() AllocStats { return b.stats }

// Used returns how many bytes the bump allocator has handed out (aligned).
func (b *Bump) Used() uintptr { return b.next - b.arena.Base }
