package mem

import (
	"encoding/binary"
	"fmt"

	"flexos/internal/machine"
)

// PageSize is the simulated MMU page size.
const PageSize = 4096

// AddrSpace is a simulated address space of 4 KiB pages, each with one
// protection key. Under the MPK backend the whole system shares one
// AddrSpace; under the EPT backend each compartment (VM) owns its own,
// plus a window of memory aliased into all of them.
//
// Reads and writes are checked against the caller-supplied PKRU value,
// modeling the per-thread PKRU register; violations return *Fault and
// charge the machine the page-fault cost. Successful bulk accesses charge
// copy cost, so data movement is visible in the cycle clock.
//
// The host backs each page with a frame allocated on its first write; a
// page never written reads as zero. Pages are grouped in chunks of
// chunkPages, and a chunk's page records are allocated only when one of
// its pages first gets a frame or a poison shadow, so an untouched
// space costs its key table and a directory of chunk entries. A
// simulated OS touches a few dozen KiB of its address space, so this
// keeps host memory proportional to what it uses. Backing is invisible
// to the simulation: every check, fault and cycle charge is the same
// whether a chunk or frame exists or not.
//
// Reset returns a space to its just-constructed state for the next
// image, keeping its chunks, frames and shadows attached but zeroed. A
// zeroed frame reads and moves like a missing one and a zeroed shadow
// is unpoisoned, so a reset space is indistinguishable from a new one
// while it allocates nothing for the pages it already backs.
type AddrSpace struct {
	name   string
	keys   []Key
	dir    []dirEntry // entry c covers pages [c*chunkPages, (c+1)*chunkPages)
	shadow bool       // KASan shadow enabled (each page holds its own part)
	mach   *machine.Machine

	// stats
	reads, writes uint64
	bytesRead     uint64
	bytesWritten  uint64
	faults        uint64
}

// page is the host backing of one simulated page.
type page struct {
	data *[PageSize]byte // nil until first written; reads as zero
	// shadow is the page's KASan poison shadow, one byte per 8-byte
	// granule. nil means wholly unpoisoned; Poison allocates it.
	shadow *[granulesPerPage]byte
}

// chunkPages is the number of pages one directory entry covers: a
// 32 MiB space has a directory of 128 entries, and a chunk's page
// records take 1 KiB.
const chunkPages = 64

// chunk holds the page records of chunkPages consecutive pages.
type chunk [chunkPages]page

// dirEntry is one directory entry: its chunk, nil until touched, and
// whether the chunk was written or poisoned since construction or the
// last Reset. A clean chunk holds only zero bytes: the stores that
// bypass touch (movePiece clearing a frame, unpoisoning) store zeros.
type dirEntry struct {
	c     *chunk
	dirty bool
}

// NewAddrSpace creates an address space of the given size (rounded up to a
// whole number of pages), with all pages holding KeyTCB.
func NewAddrSpace(name string, size int, m *machine.Machine) *AddrSpace {
	if size <= 0 {
		panic("mem: address space size must be positive")
	}
	pages := (size + PageSize - 1) / PageSize
	return &AddrSpace{
		name: name,
		keys: make([]Key, pages),
		dir:  make([]dirEntry, (pages+chunkPages-1)/chunkPages),
		mach: m,
	}
}

// Reset puts the space back in the state NewAddrSpace(as.Name(),
// as.Size(), m) returns: every page keyed KeyTCB and reading as zero,
// the shadow off and unpoisoned, the counters zeroed, charging m. It
// zeroes only the chunks touched since the last reset and keeps their
// frames and shadows attached for the next run to write into.
func (as *AddrSpace) Reset(m *machine.Machine) {
	for i := range as.dir {
		e := &as.dir[i]
		if !e.dirty {
			continue
		}
		for j := range e.c {
			pg := &e.c[j]
			if pg.data != nil {
				clear(pg.data[:])
			}
			if pg.shadow != nil {
				clear(pg.shadow[:])
			}
		}
		e.dirty = false
	}
	clear(as.keys)
	*as = AddrSpace{name: as.name, keys: as.keys, dir: as.dir, mach: m}
}

// Name returns the space's name (VM identifier under EPT).
func (as *AddrSpace) Name() string { return as.name }

// Size returns the size of the space in bytes.
func (as *AddrSpace) Size() int { return len(as.keys) * PageSize }

// Pages returns the number of pages.
func (as *AddrSpace) Pages() int { return len(as.keys) }

// SetKeyRange tags every page overlapping [addr, addr+length) with key k.
// This is what the boot code does for per-compartment data/rodata/bss
// sections and what heap growth does for newly claimed pages.
func (as *AddrSpace) SetKeyRange(addr, length uintptr, k Key) error {
	if k >= NumKeys {
		return fmt.Errorf("mem: key %d out of range", k)
	}
	if length == 0 {
		return nil
	}
	end := addr + length
	if end > uintptr(as.Size()) || end < addr {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Len: int(length), Space: as.name}
	}
	for p := addr / PageSize; p <= (end-1)/PageSize; p++ {
		as.keys[p] = k
	}
	return nil
}

// KeyAt returns the protection key of the page containing addr.
func (as *AddrSpace) KeyAt(addr uintptr) Key {
	return as.keys[addr/PageSize]
}

// check validates an access of n bytes at addr under pkru. On violation it
// charges the page-fault cost and returns a *Fault.
func (as *AddrSpace) check(pkru PKRU, addr uintptr, n int, write bool) error {
	if n < 0 || addr+uintptr(n) > uintptr(as.Size()) || addr+uintptr(n) < addr {
		as.faults++
		as.mach.Charge(as.mach.Costs.PageFault)
		return &Fault{Kind: FaultUnmapped, Addr: addr, Len: n, Write: write, PKRU: pkru, Space: as.name}
	}
	if n == 0 {
		return nil
	}
	first, last := addr/PageSize, (addr+uintptr(n)-1)/PageSize
	for p := first; p <= last; p++ {
		k := as.keys[p]
		ok := pkru.CanRead(k)
		if write {
			ok = pkru.CanWrite(k)
		}
		if !ok {
			as.faults++
			as.mach.Charge(as.mach.Costs.PageFault)
			return &Fault{Kind: FaultKeyViolation, Addr: p * PageSize, Len: n, Write: write, Key: k, PKRU: pkru, Space: as.name}
		}
	}
	if as.shadow {
		if err := as.checkShadow(addr, n, write, pkru); err != nil {
			return err
		}
	}
	return nil
}

// Read copies len(buf) bytes starting at addr into buf, after checking the
// access under pkru.
func (as *AddrSpace) Read(pkru PKRU, addr uintptr, buf []byte) error {
	if err := as.check(pkru, addr, len(buf), false); err != nil {
		return err
	}
	for done := 0; done < len(buf); {
		a := addr + uintptr(done)
		n := min(len(buf)-done, PageSize-int(a%PageSize))
		if f := as.data(a / PageSize); f != nil {
			copy(buf[done:done+n], f[a%PageSize:])
		} else {
			clear(buf[done : done+n])
		}
		done += n
	}
	as.reads++
	as.bytesRead += uint64(len(buf))
	as.mach.ChargeCopy(len(buf))
	return nil
}

// Write copies src into the space at addr, after checking under pkru.
func (as *AddrSpace) Write(pkru PKRU, addr uintptr, src []byte) error {
	if err := as.check(pkru, addr, len(src), true); err != nil {
		return err
	}
	for done := 0; done < len(src); {
		a := addr + uintptr(done)
		n := min(len(src)-done, PageSize-int(a%PageSize))
		copy(as.frame(a / PageSize)[a%PageSize:], src[done:done+n])
		done += n
	}
	as.writes++
	as.bytesWritten += uint64(len(src))
	as.mach.ChargeCopy(len(src))
	return nil
}

// ReadUint64 loads an 8-byte little-endian value.
func (as *AddrSpace) ReadUint64(pkru PKRU, addr uintptr) (uint64, error) {
	var b [8]byte
	if err := as.Read(pkru, addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint64 stores an 8-byte little-endian value.
func (as *AddrSpace) WriteUint64(pkru PKRU, addr uintptr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(pkru, addr, b[:])
}

// LoadByte loads one byte.
func (as *AddrSpace) LoadByte(pkru PKRU, addr uintptr) (byte, error) {
	var b [1]byte
	if err := as.Read(pkru, addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// StoreByte stores one byte.
func (as *AddrSpace) StoreByte(pkru PKRU, addr uintptr, v byte) error {
	return as.Write(pkru, addr, []byte{v})
}

// Memmove copies n bytes inside the space from src to dst, checking the
// read side and the write side independently (they may live under
// different keys).
func (as *AddrSpace) Memmove(pkru PKRU, dst, src uintptr, n int) error {
	if err := as.check(pkru, src, n, false); err != nil {
		return err
	}
	if err := as.check(pkru, dst, n, true); err != nil {
		return err
	}
	// Page-sized pieces in the direction that never overwrites source
	// bytes before they are read, like memmove.
	if dst <= src {
		for done := 0; done < n; {
			s, d := src+uintptr(done), dst+uintptr(done)
			k := min(n-done, PageSize-int(s%PageSize), PageSize-int(d%PageSize))
			as.movePiece(d, s, k)
			done += k
		}
	} else {
		for left := n; left > 0; {
			s, d := src+uintptr(left), dst+uintptr(left) // one past the piece
			k := min(left, int((s-1)%PageSize)+1, int((d-1)%PageSize)+1)
			left -= k
			as.movePiece(d-uintptr(k), s-uintptr(k), k)
		}
	}
	as.reads++
	as.writes++
	as.bytesRead += uint64(n)
	as.bytesWritten += uint64(n)
	as.mach.ChargeCopy(n)
	return nil
}

// movePiece copies n bytes from src to dst, each range inside one page.
// Moving never-written (zero) bytes onto a never-written page leaves it
// unallocated.
func (as *AddrSpace) movePiece(dst, src uintptr, n int) {
	from := as.data(src / PageSize)
	if from == nil {
		if to := as.data(dst / PageSize); to != nil {
			clear(to[dst%PageSize:][:n])
		}
		return
	}
	copy(as.frame(dst / PageSize)[dst%PageSize:][:n], from[src%PageSize:][:n])
}

// page returns page p's record, or nil when its chunk was never touched.
func (as *AddrSpace) page(p uintptr) *page {
	if c := as.dir[p/chunkPages].c; c != nil {
		return &c[p%chunkPages]
	}
	return nil
}

// data returns page p's data frame, or nil when the page was never
// written.
func (as *AddrSpace) data(p uintptr) *[PageSize]byte {
	if pg := as.page(p); pg != nil {
		return pg.data
	}
	return nil
}

// touch returns page p's record for a write or a poison, allocating its
// chunk on first use and marking the chunk dirty for Reset.
func (as *AddrSpace) touch(p uintptr) *page {
	e := &as.dir[p/chunkPages]
	if e.c == nil {
		e.c = new(chunk)
	}
	e.dirty = true
	return &e.c[p%chunkPages]
}

// frame returns page p's data frame, allocating it on first use.
func (as *AddrSpace) frame(p uintptr) *[PageSize]byte {
	pg := as.touch(p)
	if pg.data == nil {
		pg.data = new([PageSize]byte)
	}
	return pg.data
}

// Stats reports access counters, used by tests and the bench harness.
type Stats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten uint64
	Faults                  uint64
}

// Stats returns a snapshot of the space's counters.
func (as *AddrSpace) Stats() Stats {
	return Stats{
		Reads: as.reads, Writes: as.writes,
		BytesRead: as.bytesRead, BytesWritten: as.bytesWritten,
		Faults: as.faults,
	}
}

// Machine returns the machine this space charges.
func (as *AddrSpace) Machine() *machine.Machine { return as.mach }
