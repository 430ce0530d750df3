package scenario_test

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"

	"flexos/internal/core"
	"flexos/internal/explore/exploretest"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
	"flexos/internal/scenario"
)

// recycleOps keeps each measurement of the recycling tests short; the
// images and their layouts are what the tests vary.
const recycleOps = 24

// recycleJob is one measurement of the recycling tests.
type recycleJob struct {
	name string
	sc   *scenario.Scenario
	spec core.ImageSpec
}

// recycleJobs lists every configuration of every shipped space,
// measured by the first library scenario of its application, with two
// kinds of measurement interleaved that leave an image behind
// mid-run: every seventh configuration is also measured under an
// attack on the network stack's heap (a fault where a boundary stops
// it, bytes a later attack would read where none does), and some
// configurations also run on heaps of one page, which mostly runs out
// of memory mid-setup.
func recycleJobs(t *testing.T) []recycleJob {
	t.Helper()
	byApp := map[string]*scenario.Scenario{}
	for _, sc := range scenario.All() {
		if quad, ok := sc.Quad(); ok && byApp[quad[0]] == nil {
			byApp[quad[0]] = sc.WithOps(recycleOps)
		}
	}
	spaces := exploretest.ShippedSpaces()
	names := make([]string, 0, len(spaces))
	for name := range spaces {
		names = append(names, name)
	}
	sort.Strings(names)
	var jobs []recycleJob
	for _, name := range names {
		for _, c := range spaces[name] {
			var sc *scenario.Scenario
			for _, comp := range c.Components() {
				if byApp[comp] != nil {
					sc = byApp[comp]
				}
			}
			if sc == nil {
				t.Fatalf("%s %s: no scenario for its components", name, c.Key())
			}
			spec := c.Spec(oslib.TCB())
			id := name + " " + c.Key()
			jobs = append(jobs, recycleJob{id, sc, spec})
			if len(jobs)%7 == 0 {
				jobs = append(jobs, recycleJob{id + " attacked", scenario.Attacking(sc, netstack.Name), spec})
			}
			if len(jobs)%11 == 0 {
				starved := spec
				starved.HeapPages = 1
				jobs = append(jobs, recycleJob{id + " starved", sc, starved})
			}
		}
	}
	return jobs
}

// recycleResult is a measurement as the tests compare it: the metric
// vector's bits, or the error's text.
type recycleResult struct {
	bits [10]uint64
	err  string
}

func measure(j recycleJob) recycleResult {
	m, err := j.sc.Run(j.spec)
	if err != nil {
		return recycleResult{err: err.Error()}
	}
	return recycleResult{bits: metricBits(m)}
}

// measureAll measures the jobs in input order.
func measureAll(jobs []recycleJob) []recycleResult {
	out := make([]recycleResult, len(jobs))
	for i, j := range jobs {
		out[i] = measure(j)
	}
	return out
}

// compareRecycled fails the test for every job whose result differs
// from want's, naming how it was measured.
func compareRecycled(t *testing.T, how string, jobs []recycleJob, got, want []recycleResult) {
	t.Helper()
	bad := 0
	for i := range jobs {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("%s: %s: %+v, in input order %+v", how, jobs[i].name, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%s: %d of %d measurements differ", how, bad, len(jobs))
	}
}

// checkFailures makes sure both kinds of failing measurement fail, so
// the interleaving really hands dirty and half-built images back.
func checkFailures(t *testing.T, jobs []recycleJob, want []recycleResult) {
	t.Helper()
	attacked, starved := 0, 0
	for i, j := range jobs {
		switch {
		case want[i].err == "":
		case strings.HasSuffix(j.name, " attacked"):
			attacked++
		case strings.HasSuffix(j.name, " starved"):
			starved++
		default:
			t.Fatalf("%s: %s", j.name, want[i].err)
		}
	}
	if attacked == 0 || starved == 0 {
		t.Fatalf("%d attacked and %d starved measurements failed; want some of each", attacked, starved)
	}
	t.Logf("%d measurements, %d attacked and %d starved runs failed", len(jobs), attacked, starved)
}

// TestRecycledMeasurementsIgnoreOrder measures every configuration of
// every shipped space in input order and again in a shuffled order.
// Every image builds on the address space and heaps of the measurements
// before it, including ones that faulted or failed mid-run, so a
// recycled image that still held anything of an earlier run would
// measure differently in the other order. Every metric vector must
// match bit for bit, and every error byte for byte.
func TestRecycledMeasurementsIgnoreOrder(t *testing.T) {
	jobs := recycleJobs(t)
	want := measureAll(jobs)
	checkFailures(t, jobs, want)

	perm := rand.New(rand.NewPCG(39, 2022)).Perm(len(jobs))
	got := make([]recycleResult, len(jobs))
	for _, i := range perm {
		got[i] = measure(jobs[i])
	}
	compareRecycled(t, "shuffled", jobs, got, want)
}

// TestRecycledMeasurementsAcrossWorkers shares the pool of recycled
// host memory among eight goroutines measuring the shuffled jobs at
// once; under -race it checks that an image's memory has one owner at
// a time. Every result must match the sequential one.
func TestRecycledMeasurementsAcrossWorkers(t *testing.T) {
	jobs := recycleJobs(t)
	want := measureAll(jobs)

	const workers = 8
	perm := rand.New(rand.NewPCG(8, 39)).Perm(len(jobs))
	got := make([]recycleResult, len(jobs))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(perm); k += workers {
				got[perm[k]] = measure(jobs[perm[k]])
			}
		}()
	}
	wg.Wait()
	compareRecycled(t, fmt.Sprintf("%d workers", workers), jobs, got, want)
}
