package scenario_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	redisapp "flexos/internal/apps/redis"
	sqliteapp "flexos/internal/apps/sqlite"
	"flexos/internal/core"
	"flexos/internal/explore"
	"flexos/internal/libc"
	"flexos/internal/oslib"
	"flexos/internal/ramfs"
	"flexos/internal/scenario"
	"flexos/internal/timesys"
	"flexos/internal/vfs"
)

// sqliteFig6Specs maps the 80 Figure 6 configurations onto SQLite: the
// quad is (libsqlite, newlib, uksched, vfscore), and ramfs and uktime
// join vfscore's compartment, the filesystem side of Figure 10.
func sqliteFig6Specs() []core.ImageSpec {
	var specs []core.ImageSpec
	for _, c := range explore.Fig6Space([4]string{sqliteapp.Name, libc.Name, oslib.SchedName, vfs.Name}) {
		spec := c.Spec(oslib.TCB())
		for i, cs := range spec.Comps {
			if slices.Contains(cs.Libs, vfs.Name) {
				spec.Comps[i].Libs = append(cs.Libs, ramfs.Name, timesys.Name)
			}
		}
		specs = append(specs, spec)
	}
	return specs
}

// metricBits is a metric vector as the bits of each of its fields.
func metricBits(m scenario.Metrics) [10]uint64 {
	return [10]uint64{
		math.Float64bits(m.Throughput), math.Float64bits(m.P50us),
		math.Float64bits(m.P99us), math.Float64bits(m.MaxUs),
		m.PeakMemBytes, m.BootCycles, m.Cycles, uint64(m.Ops), m.Crossings,
		math.Float64bits(m.Survival),
	}
}

// TestConcurrentRunsShareComponents runs redis-get90 and sqlite-batch8
// over the 80 Figure 6 configurations from eight goroutines at once.
// Every image builds from the scenarios' shared catalogs and the
// process-wide components, so under -race this catches component state
// kept anywhere but in the state Build gives each image; every metric
// vector must equal, bit for bit, the one a sequential run measures.
func TestConcurrentRunsShareComponents(t *testing.T) {
	type job struct {
		sc   *scenario.Scenario
		spec core.ImageSpec
	}
	var jobs []job
	for _, c := range explore.Fig6Space([4]string(redisapp.Components)) {
		jobs = append(jobs, job{scenario.RedisGet90, c.Spec(oslib.TCB())})
	}
	for _, spec := range sqliteFig6Specs() {
		jobs = append(jobs, job{scenario.SQLiteBatch8, spec})
	}

	want := make([][10]uint64, len(jobs))
	for i, j := range jobs {
		m, err := j.sc.Run(j.spec)
		if err != nil {
			t.Fatalf("%s job %d: %v", j.sc.Name(), i, err)
		}
		want[i] = metricBits(m)
	}

	const workers = 8
	got := make([][10]uint64, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				m, err := jobs[i].sc.Run(jobs[i].spec)
				got[i], errs[i] = metricBits(m), err
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Errorf("%s job %d: %v", j.sc.Name(), i, errs[i])
		} else if got[i] != want[i] {
			t.Errorf("%s job %d: concurrent run measured %v, sequential %v", j.sc.Name(), i, got[i], want[i])
		}
	}
}
