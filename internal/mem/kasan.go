package mem

// KASan shadow support. The kernel address sanitizer instruments a
// compartment's allocator: every allocation is surrounded by poisoned
// redzones and freed memory stays poisoned (quarantined) so use-after-free
// and out-of-bounds accesses fault deterministically.
//
// The shadow maps each 8-byte granule of the address space to one byte:
// 0 means fully addressable, poison values mark redzones / freed memory.
// Like the data, it is held per page and allocated only when a page is
// first poisoned; a page with no shadow (or in a chunk never touched) is
// wholly addressable.

const (
	shadowScale = 8

	// granulesPerPage is the number of shadow bytes covering one page.
	granulesPerPage = PageSize / shadowScale

	// Shadow poison values, mirroring KASan's encoding.
	poisonNone    byte = 0x00
	poisonRedzone byte = 0xFA
	poisonFreed   byte = 0xFD
)

// EnableShadow activates the KASan shadow for this address space. It is
// idempotent. Only compartments whose configuration lists the "kasan"
// hardening get a poisoning allocator, but the shadow lives with the space.
func (as *AddrSpace) EnableShadow() { as.shadow = true }

// ShadowEnabled reports whether the shadow is active.
func (as *AddrSpace) ShadowEnabled() bool { return as.shadow }

// Poison marks [addr, addr+n) as inaccessible with the given poison class.
// Partial granules at the edges are poisoned conservatively only when the
// whole granule is covered, like real KASan's byte-granularity encoding
// (we keep whole-granule granularity for simplicity; allocators align
// redzones to 8 bytes).
func (as *AddrSpace) Poison(addr uintptr, n int, freed bool) {
	if !as.shadow || n <= 0 {
		return
	}
	v := poisonRedzone
	if freed {
		v = poisonFreed
	}
	as.fillShadow((addr+shadowScale-1)/shadowScale, (addr+uintptr(n))/shadowScale, v)
}

// Unpoison marks [addr, addr+n) addressable again.
func (as *AddrSpace) Unpoison(addr uintptr, n int) {
	if !as.shadow || n <= 0 {
		return
	}
	as.fillShadow(addr/shadowScale, (addr+uintptr(n)+shadowScale-1)/shadowScale, poisonNone)
}

// fillShadow sets granules [first, last), clipped to the space, to v. A
// page's shadow is allocated only to hold poison: unpoisoning a page
// that has none leaves it without.
func (as *AddrSpace) fillShadow(first, last uintptr, v byte) {
	last = min(last, uintptr(len(as.keys))*granulesPerPage)
	for g := first; g < last; {
		p := g / granulesPerPage
		end := min(last, (p+1)*granulesPerPage)
		pg := as.page(p)
		if v != poisonNone {
			pg = as.touch(p)
			if pg.shadow == nil {
				pg.shadow = new([granulesPerPage]byte)
			}
		}
		if pg != nil && pg.shadow != nil {
			for i := g % granulesPerPage; i < end-p*granulesPerPage; i++ {
				pg.shadow[i] = v
			}
		}
		g = end
	}
}

// checkShadow validates an access against the poison shadow. It is called
// from check after the bounds and key validation passed, so every granule
// of the access lies inside the space.
func (as *AddrSpace) checkShadow(addr uintptr, n int, write bool, pkru PKRU) error {
	last := (addr + uintptr(n) - 1) / shadowScale
	for g := addr / shadowScale; g <= last; {
		p := g / granulesPerPage
		end := min(last+1, (p+1)*granulesPerPage)
		if pg := as.page(p); pg != nil && pg.shadow != nil {
			for ; g < end; g++ {
				if pg.shadow[g%granulesPerPage] != poisonNone {
					as.faults++
					as.mach.Charge(as.mach.Costs.PageFault)
					return &Fault{
						Kind: FaultKASanRedzone, Addr: g * shadowScale, Len: n,
						Write: write, PKRU: pkru, Space: as.name,
					}
				}
			}
		}
		g = end
	}
	return nil
}
