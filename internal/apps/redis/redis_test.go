package redis_test

import (
	"testing"

	"flexos/internal/apps/redis"
	"flexos/internal/core"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
	"flexos/internal/scenario"
)

// get runs the redis-get100 scenario — the redis-benchmark GET loop —
// for the given number of requests.
func get(t *testing.T, spec core.ImageSpec, requests int) scenario.Metrics {
	t.Helper()
	m, err := scenario.RedisGet100.WithOps(requests).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func oneComp() core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0",
			Libs: append([]string{oslib.BootName, oslib.MMName}, redis.Components...),
		}},
	}
}

func mpkSplit(isolated ...string) core.ImageSpec {
	iso := map[string]bool{}
	for _, l := range isolated {
		iso[l] = true
	}
	var rest, sep []string
	rest = append(rest, oslib.BootName, oslib.MMName)
	for _, l := range redis.Components {
		if iso[l] {
			sep = append(sep, l)
		} else {
			rest = append(rest, l)
		}
	}
	return core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []core.CompSpec{
			{Name: "comp0", Libs: rest},
			{Name: "comp1", Libs: sep},
		},
	}
}

func TestServeGetFunctional(t *testing.T) {
	res := get(t, oneComp(), 50)
	if res.Ops != 50 || res.Throughput <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Crossings != 0 {
		t.Fatalf("1-compartment image crossed %d gates", res.Crossings)
	}
}

func TestBaselineThroughputCalibration(t *testing.T) {
	// Paper Fig. 6: the fastest Redis configuration (no isolation, no
	// hardening) reaches ~1.2M GET/s on the 2.2 GHz Xeon.
	res := get(t, oneComp(), 300)
	if res.Throughput < 0.8e6 || res.Throughput > 1.6e6 {
		t.Fatalf("baseline GET throughput = %.0f req/s, want ~1.2M (0.8M..1.6M)", res.Throughput)
	}
}

func TestIsolationCostsFollowCommunicationPatterns(t *testing.T) {
	// Paper §6.1: isolating lwip costs ~11%, isolating the scheduler
	// ~43%, because Redis talks to the scheduler far more often.
	base := get(t, oneComp(), 300)
	lwip := get(t, mpkSplit(netstack.Name), 300)
	schd := get(t, mpkSplit(oslib.SchedName), 300)
	lwipHit := 1 - lwip.Throughput/base.Throughput
	schedHit := 1 - schd.Throughput/base.Throughput
	if lwipHit < 0.03 || lwipHit > 0.25 {
		t.Errorf("lwip isolation hit = %.1f%%, want ~11%%", 100*lwipHit)
	}
	if schedHit < 0.25 || schedHit > 0.55 {
		t.Errorf("scheduler isolation hit = %.1f%%, want ~43%%", 100*schedHit)
	}
	if schedHit <= lwipHit {
		t.Errorf("scheduler isolation (%.1f%%) must cost more than lwip isolation (%.1f%%)",
			100*schedHit, 100*lwipHit)
	}
	if lwip.Crossings >= schd.Crossings {
		t.Errorf("crossings: lwip %d >= sched %d; call matrix wrong", lwip.Crossings, schd.Crossings)
	}
}

func TestHardeningCostsFollowWorkDistribution(t *testing.T) {
	// Paper §6.1 (single compartment): hardening the scheduler costs
	// ~24%, hardening the Redis application code ~42%.
	base := get(t, oneComp(), 300)
	hardenOne := func(lib string) float64 {
		spec := oneComp()
		// Single compartment, but hardening applies per component via
		// a dedicated compartment under NONE (no isolation cost).
		spec.Comps = []core.CompSpec{
			{Name: "c0", Libs: nil},
			{Name: "hard", Libs: []string{lib}, Hardening: harden.NewSet(harden.All)},
		}
		for _, l := range append([]string{oslib.BootName, oslib.MMName}, redis.Components...) {
			if l != lib {
				spec.Comps[0].Libs = append(spec.Comps[0].Libs, l)
			}
		}
		res := get(t, spec, 300)
		return 1 - res.Throughput/base.Throughput
	}
	redisHit := hardenOne(redis.Name)
	schedHit := hardenOne(oslib.SchedName)
	if redisHit <= schedHit {
		t.Errorf("hardening redis (%.1f%%) must cost more than hardening uksched (%.1f%%)",
			100*redisHit, 100*schedHit)
	}
	if redisHit < 0.20 || redisHit > 0.55 {
		t.Errorf("redis hardening hit = %.1f%%, want ~42%%", 100*redisHit)
	}
	if schedHit < 0.08 || schedHit > 0.35 {
		t.Errorf("sched hardening hit = %.1f%%, want ~24%%", 100*schedHit)
	}
}

func TestEPTBackendRuns(t *testing.T) {
	spec := mpkSplit(netstack.Name)
	spec.Mechanism = "vm-ept"
	res := get(t, spec, 100)
	mpk := get(t, mpkSplit(netstack.Name), 100)
	if res.Throughput >= mpk.Throughput {
		t.Fatalf("EPT (%f) should be slower than MPK (%f)", res.Throughput, mpk.Throughput)
	}
}

func TestDeterministic(t *testing.T) {
	a := get(t, mpkSplit(netstack.Name), 100)
	b := get(t, mpkSplit(netstack.Name), 100)
	if a.Cycles != b.Cycles {
		t.Fatalf("simulation not deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestStateCounters(t *testing.T) {
	cat, st := redis.Catalog()
	img, err := core.Build(cat, oneComp())
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := img.NewContext("t", redis.Name)
	if _, err := ctx.Call(redis.Name, "setup", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call(netstack.Name, "rx_enqueue", 1, []byte("GET key1\r\n")); err != nil {
		t.Fatal(err)
	}
	hit, err := ctx.Call(redis.Name, "serve_get")
	if err != nil {
		t.Fatal(err)
	}
	if hit != true || st.Hits() != 1 || st.Misses() != 0 {
		t.Fatalf("hit=%v hits=%d misses=%d", hit, st.Hits(), st.Misses())
	}
	// Empty queue -> miss.
	if hit, _ := ctx.Call(redis.Name, "serve_get"); hit != false {
		t.Fatal("empty queue should miss")
	}
}
