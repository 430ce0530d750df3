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
			Libs: append(oslib.TCB(), redis.Components...),
		}},
	}
}

func mpkSplit(isolated ...string) core.ImageSpec {
	iso := map[string]bool{}
	for _, l := range isolated {
		iso[l] = true
	}
	rest, sep := oslib.TCB(), []string(nil)
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
		for _, l := range append(oslib.TCB(), redis.Components...) {
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
	img, err := core.Build(scenario.FullCatalog(), oneComp())
	if err != nil {
		t.Fatal(err)
	}
	st := img.State(redis.Name).(*redis.State)
	ctx, _ := img.NewContext("t", redis.Name)
	if _, err := ctx.Call(core.Symbol(redis.Name, "setup"), core.Words(4)); err != nil {
		t.Fatal(err)
	}
	enq := core.Words(1)
	enq.B = []byte("GET key1\r\n")
	if _, err := ctx.Call(core.Symbol(netstack.Name, "rx_enqueue"), enq); err != nil {
		t.Fatal(err)
	}
	hit, err := ctx.Call(core.Symbol(redis.Name, "serve_get"), core.Args{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Bool() || st.Hits() != 1 || st.Misses() != 0 {
		t.Fatalf("hit=%v hits=%d misses=%d", hit.Bool(), st.Hits(), st.Misses())
	}
	// Empty queue -> miss.
	if hit, _ := ctx.Call(core.Symbol(redis.Name, "serve_get"), core.Args{}); hit.Bool() {
		t.Fatal("empty queue should miss")
	}
}

// TestReleasedStateStartsEmpty: an image released after preloading
// many keys hands its state back for reuse, and the next image's setup
// must see none of those keys and none of its counts.
func TestReleasedStateStartsEmpty(t *testing.T) {
	call := func(ctx *core.Ctx, lib, fn string, a core.Args) core.Ret {
		t.Helper()
		r, err := ctx.Call(core.Symbol(lib, fn), a)
		if err != nil {
			t.Fatalf("%s.%s: %v", lib, fn, err)
		}
		return r
	}
	get := func(ctx *core.Ctx, key string) bool {
		enq := core.Words(1)
		enq.B = []byte("GET " + key + "\r\n")
		call(ctx, netstack.Name, "rx_enqueue", enq)
		return call(ctx, redis.Name, "serve_get", core.Args{}).Bool()
	}
	for round, keys := range []uint64{70, 4} {
		img, err := core.Build(scenario.FullCatalog(), oneComp())
		if err != nil {
			t.Fatal(err)
		}
		st := img.State(redis.Name).(*redis.State)
		ctx, _ := img.NewContext("t", redis.Name)
		call(ctx, redis.Name, "setup", core.Words(keys))
		if st.Hits() != 0 || st.Misses() != 0 || st.Sets() != 0 {
			t.Fatalf("round %d: fresh state counts hits=%d misses=%d sets=%d", round, st.Hits(), st.Misses(), st.Sets())
		}
		if !get(ctx, "key3") {
			t.Fatalf("round %d: preloaded key3 missed", round)
		}
		if hit := get(ctx, "key50"); hit != (keys > 50) {
			t.Fatalf("round %d: key50 hit=%v after preloading %d keys", round, hit, keys)
		}
		img.Release()
	}
}
