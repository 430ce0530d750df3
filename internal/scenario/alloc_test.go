package scenario_test

import (
	"runtime"
	"testing"

	redisapp "flexos/internal/apps/redis"
	"flexos/internal/explore"
	"flexos/internal/oslib"
	"flexos/internal/scenario"
)

// TestRedisRunAllocationBudget pins the host memory one measurement
// costs: building, booting and running any Figure 6 Redis configuration
// allocates less than 256 KiB, in fewer than 311 host allocations (the
// worst configuration takes about 110 KB in 250 on amd64). The
// simulated address space is 32 MiB; its page directory allocates page
// records a 64-page chunk at a time, and only for the chunks the run
// writes or poisons, and only those pages get frames or a KASan shadow.
// The heaps keep their block bookkeeping in a slot table that grows with
// what they carve, and shared variables are placed into one slice.
// Simulated calls resolve through the Sym-indexed call-site table Build
// fills, pass typed argument frames and reuse their frames, and the
// component bodies reuse host scratch, and the components and the
// scenario's catalog are built once per process, so what remains is the
// image and its component state (resolving each call at run time took
// over 17,000 allocations, and boxing arguments over 5,000; an eager
// page table, map-based heap bookkeeping and string-keyed
// shared-variable maps took 307 KB in 511; registering a fresh catalog
// per measurement and growing each compartment's library list took 89
// more).
func TestRedisRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not meaningful under -race")
	}
	const budget, mallocBudget = 256 << 10, 311
	tcb := oslib.TCB()
	var worst, worstMallocs uint64
	for _, c := range explore.Fig6Space([4]string(redisapp.Components)) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := scenario.RedisGet100.Run(c.Spec(tcb)); err != nil {
			t.Fatalf("%s: %v", c.Key(), err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if got >= budget {
			t.Errorf("%s allocated %d bytes, budget %d", c.Key(), got, budget)
		}
		mallocs := after.Mallocs - before.Mallocs
		if mallocs >= mallocBudget {
			t.Errorf("%s made %d host allocations, budget %d", c.Key(), mallocs, mallocBudget)
		}
		worst, worstMallocs = max(worst, got), max(worstMallocs, mallocs)
	}
	t.Logf("worst configuration allocated %d bytes in %d allocations", worst, worstMallocs)
}
