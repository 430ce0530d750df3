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
// allocates less than 4 MiB. The simulated address space is 32 MiB;
// only the pages the run writes (and the KASan shadow of the pages it
// poisons) may be backed.
func TestRedisRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not meaningful under -race")
	}
	const budget = 4 << 20
	tcb := []string{oslib.BootName, oslib.MMName}
	var worst uint64
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
		worst = max(worst, got)
	}
	t.Logf("worst configuration allocated %d bytes", worst)
}
