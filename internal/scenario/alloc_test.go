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
// allocates less than 4 MiB, in fewer than 8,000 host allocations. The
// simulated address space is 32 MiB; only the pages the run writes (and
// the KASan shadow of the pages it poisons) may be backed. Simulated
// calls resolve through the call-site table Build fills and reuse their
// frames, so what remains is mostly argument boxing in component code
// (resolving each call at run time took over 17,000 allocations).
func TestRedisRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not meaningful under -race")
	}
	const budget, mallocBudget = 4 << 20, 8000
	tcb := []string{oslib.BootName, oslib.MMName}
	var worst, worstMallocs uint64
	for _, c := range explore.Fig6Space(redisapp.Components4()) {
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
