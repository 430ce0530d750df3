package mem

import (
	"runtime"
	"testing"

	"flexos/internal/machine"
)

// TestAddrSpaceBackingIsLazy pins the host cost of an untouched address
// space: a 32 MiB space with the KASan shadow enabled allocates its page
// table, not its pages. Eager backing would allocate 36 MiB here.
func TestAddrSpaceBackingIsLazy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not meaningful under -race")
	}
	const budget = 512 << 10
	m := machine.New(machine.CostModel{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	as := NewAddrSpace("t", 32<<20, m)
	as.EnableShadow()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("NewAddrSpace(32 MiB) + EnableShadow allocated %d bytes, budget %d", got, budget)
	}
	if !as.ShadowEnabled() || as.Size() != 32<<20 {
		t.Fatalf("space: shadow %v, size %d", as.ShadowEnabled(), as.Size())
	}
}
