package mem

import (
	"testing"
	"testing/quick"

	"flexos/internal/machine"
)

func newArena(t *testing.T, pages int) (Arena, *machine.Machine) {
	t.Helper()
	m := machine.New(machine.CostModel{})
	as := NewAddrSpace("heap", pages*PageSize, m)
	a, err := NewArena(as, 0, uintptr(pages*PageSize))
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func testAllocatorBasics(t *testing.T, mk func(Arena, *machine.Machine) Allocator) {
	a, m := newArena(t, 64)
	al := mk(a, m)

	p1, err := al.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := al.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("two live allocations share an address")
	}
	if n, ok := al.SizeOf(p1); !ok || n < 100 {
		t.Fatalf("SizeOf(p1) = %d,%v", n, ok)
	}
	if err := al.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := al.Free(p1); err != ErrBadFree {
		t.Fatalf("double free: got %v, want ErrBadFree", err)
	}
	if err := al.Free(42_000_000); err != ErrBadFree {
		t.Fatalf("wild free: got %v, want ErrBadFree", err)
	}
	st := al.Stats()
	if st.Allocs != 2 || st.Frees != 1 {
		t.Fatalf("stats = %+v, want 2 allocs / 1 free", st)
	}
}

func TestTLSFBasics(t *testing.T) {
	testAllocatorBasics(t, func(a Arena, m *machine.Machine) Allocator { return NewTLSF(a, m) })
}

func TestBumpBasics(t *testing.T) {
	a, m := newArena(t, 4)
	b := NewBump(a, m)
	p1, err := b.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if p2 <= p1 {
		t.Fatal("bump allocator must move forward")
	}
	if b.Used() == 0 {
		t.Fatal("Used() should be non-zero")
	}
	if err := b.Free(999); err != ErrBadFree {
		t.Fatalf("wild free: %v", err)
	}
}

func TestTLSFReusesFreedBlocks(t *testing.T) {
	a, m := newArena(t, 16)
	al := NewTLSF(a, m)
	p, _ := al.Alloc(64)
	al.Free(p)
	q, _ := al.Alloc(64)
	if p != q {
		t.Fatalf("TLSF did not reuse the freed block: %#x vs %#x", p, q)
	}
}

func TestAllocatorsExhaust(t *testing.T) {
	for _, mk := range []func(Arena, *machine.Machine) Allocator{
		func(a Arena, m *machine.Machine) Allocator { return NewTLSF(a, m) },
		func(a Arena, m *machine.Machine) Allocator { return NewBump(a, m) },
	} {
		a, m := newArena(t, 1)
		al := mk(a, m)
		var err error
		for i := 0; i < 100; i++ {
			if _, err = al.Alloc(1024); err != nil {
				break
			}
		}
		if err != ErrOutOfMemory {
			t.Fatalf("%s: expected ErrOutOfMemory, got %v", al.Name(), err)
		}
	}
}

// Property: live allocations from any allocator never overlap.
func TestAllocatorNoOverlapProperty(t *testing.T) {
	mkers := map[string]func(Arena, *machine.Machine) Allocator{
		"tlsf": func(a Arena, m *machine.Machine) Allocator { return NewTLSF(a, m) },
	}
	for name, mk := range mkers {
		t.Run(name, func(t *testing.T) {
			f := func(sizes []uint16, freeMask uint64) bool {
				a, m := newArena(t, 256)
				al := mk(a, m)
				type blk struct {
					addr uintptr
					size int
				}
				var live []blk
				for i, s := range sizes {
					n := int(s%2048) + 1
					addr, err := al.Alloc(n)
					if err != nil {
						return err == ErrOutOfMemory
					}
					live = append(live, blk{addr, n})
					if freeMask&(1<<uint(i%64)) != 0 && len(live) > 1 {
						victim := live[0]
						live = live[1:]
						if al.Free(victim.addr) != nil {
							return false
						}
					}
				}
				for i := 0; i < len(live); i++ {
					for j := i + 1; j < len(live); j++ {
						a, b := live[i], live[j]
						if a.addr < b.addr+uintptr(b.size) && b.addr < a.addr+uintptr(a.size) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllocLatencyOrdering(t *testing.T) {
	// Figure 11a: heap allocations are one to two orders of magnitude
	// slower than stack/bump allocations.
	a, m := newArena(t, 64)
	tl := NewTLSF(a, m)
	heapCost := m.Clock.Span(func() { tl.Alloc(64) })

	a2, m2 := newArena(t, 64)
	bp := NewBump(a2, m2)
	stackCost := m2.Clock.Span(func() { bp.Alloc(64) })

	if heapCost < 10*stackCost {
		t.Fatalf("heap alloc (%d cy) should be >=10x stack alloc (%d cy)", heapCost, stackCost)
	}
}

func TestKASanDetectsOOBWrite(t *testing.T) {
	m := machine.New(machine.CostModel{})
	as := NewAddrSpace("kasan", 64*PageSize, m)
	arena, _ := NewArena(as, 0, 64*PageSize)
	ka := NewKASanAllocator(NewTLSF(arena, m), as, m)

	p, err := ka.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	// In-bounds is fine.
	if err := as.Write(PKRUAllowAll, p, make([]byte, 32)); err != nil {
		t.Fatalf("in-bounds write failed: %v", err)
	}
	// One past the end hits the redzone.
	err = as.Write(PKRUAllowAll, p+32, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if !IsFault(err, FaultKASanRedzone) {
		t.Fatalf("OOB write: got %v, want kasan redzone fault", err)
	}
	// Underflow hits the left redzone.
	err = as.Read(PKRUAllowAll, p-8, make([]byte, 8))
	if !IsFault(err, FaultKASanRedzone) {
		t.Fatalf("underflow read: got %v, want kasan redzone fault", err)
	}
}

func TestKASanDetectsUseAfterFree(t *testing.T) {
	m := machine.New(machine.CostModel{})
	as := NewAddrSpace("kasan", 64*PageSize, m)
	arena, _ := NewArena(as, 0, 64*PageSize)
	ka := NewKASanAllocator(NewTLSF(arena, m), as, m)

	p, _ := ka.Alloc(64)
	if err := ka.Free(p); err != nil {
		t.Fatal(err)
	}
	err := as.Read(PKRUAllowAll, p, make([]byte, 8))
	if !IsFault(err, FaultKASanRedzone) {
		t.Fatalf("use-after-free: got %v, want kasan fault", err)
	}
}

func TestKASanSizeOf(t *testing.T) {
	m := machine.New(machine.CostModel{})
	as := NewAddrSpace("kasan", 16*PageSize, m)
	arena, _ := NewArena(as, 0, 16*PageSize)
	ka := NewKASanAllocator(NewTLSF(arena, m), as, m)
	p, _ := ka.Alloc(40)
	if n, ok := ka.SizeOf(p); !ok || n < 40 {
		t.Fatalf("SizeOf = %d,%v", n, ok)
	}
	if _, ok := ka.SizeOf(12345); ok {
		t.Fatal("SizeOf on wild pointer should fail")
	}
}

func TestUnpoisonAllowsAccessAgain(t *testing.T) {
	m := machine.New(machine.CostModel{})
	as := NewAddrSpace("shadow", 4*PageSize, m)
	as.EnableShadow()
	as.Poison(128, 64, false)
	if err := as.Read(PKRUAllowAll, 128, make([]byte, 8)); !IsFault(err, FaultKASanRedzone) {
		t.Fatalf("poisoned read: %v", err)
	}
	as.Unpoison(128, 64)
	if err := as.Read(PKRUAllowAll, 128, make([]byte, 8)); err != nil {
		t.Fatalf("unpoisoned read failed: %v", err)
	}
}

func TestArenaValidation(t *testing.T) {
	m := machine.New(machine.CostModel{})
	as := NewAddrSpace("x", 2*PageSize, m)
	if _, err := NewArena(as, 3, PageSize); err == nil {
		t.Fatal("unaligned arena accepted")
	}
	if _, err := NewArena(as, 0, 3*PageSize); err == nil {
		t.Fatal("oversized arena accepted")
	}
	a, err := NewArena(as, PageSize, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Contains(PageSize) || a.Contains(0) || a.Contains(2*PageSize) {
		t.Fatal("Contains is wrong")
	}
}
