package nginx_test

import (
	"testing"

	"flexos/internal/apps/nginx"
	"flexos/internal/core"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/oslib"
	"flexos/internal/scenario"
)

// serve runs the nginx-keepalive scenario — the wrk loop over one
// kept-alive connection — for the given number of requests.
func serve(t *testing.T, spec core.ImageSpec, requests int) scenario.Metrics {
	t.Helper()
	m, err := scenario.NginxKeepalive.WithOps(requests).Run(spec)
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
			Libs: append(oslib.TCB(), nginx.Components...),
		}},
	}
}

func mpkSplit(isolated string) core.ImageSpec {
	rest := oslib.TCB()
	for _, l := range nginx.Components {
		if l != isolated {
			rest = append(rest, l)
		}
	}
	return core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []core.CompSpec{
			{Name: "comp0", Libs: rest},
			{Name: "comp1", Libs: []string{isolated}},
		},
	}
}

func TestServeFunctional(t *testing.T) {
	res := serve(t, oneComp(), 50)
	if res.Ops != 50 || res.Throughput <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestSchedulerIsolationIsCheapForNginx(t *testing.T) {
	// Paper §6.1: "Compared to Redis, isolating the scheduler is much
	// less expensive (6% versus 43%)".
	base := serve(t, oneComp(), 300)
	schd := serve(t, mpkSplit(oslib.SchedName), 300)
	hit := 1 - schd.Throughput/base.Throughput
	if hit < 0 || hit > 0.15 {
		t.Fatalf("nginx scheduler isolation hit = %.1f%%, want ~6%%", 100*hit)
	}
}

func TestSchedulerHardeningIsCheapForNginx(t *testing.T) {
	// Paper §6.1: hardening the scheduler costs ~2% for Nginx.
	base := serve(t, oneComp(), 300)
	spec := core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{
			{Name: "c0", Libs: nil},
			{Name: "hard", Libs: []string{oslib.SchedName}, Hardening: harden.NewSet(harden.All)},
		},
	}
	for _, l := range append(oslib.TCB(), nginx.Components...) {
		if l != oslib.SchedName {
			spec.Comps[0].Libs = append(spec.Comps[0].Libs, l)
		}
	}
	hardened := serve(t, spec, 300)
	hit := 1 - hardened.Throughput/base.Throughput
	if hit < 0 || hit > 0.10 {
		t.Fatalf("nginx scheduler hardening hit = %.1f%%, want ~2%%", 100*hit)
	}
}

func TestNginxDistributionFlatterThanRedis(t *testing.T) {
	// Fig. 6/7: Nginx has more low-overhead configurations than Redis
	// because its hot path concentrates in the app+lwip pair. Verify the
	// scheduler split is "isolation for free" territory.
	base := serve(t, oneComp(), 200)
	schd := serve(t, mpkSplit(oslib.SchedName), 200)
	if schd.Throughput < 0.85*base.Throughput {
		t.Fatalf("scheduler split should stay within 15%% of baseline: %.0f vs %.0f",
			schd.Throughput, base.Throughput)
	}
}

func TestServedCounter(t *testing.T) {
	img, err := core.Build(scenario.FullCatalog(), oneComp())
	if err != nil {
		t.Fatal(err)
	}
	st := img.State(nginx.Name).(*nginx.State)
	ctx, _ := img.NewContext("t", nginx.Name)
	if _, err := ctx.Call(core.Symbol(nginx.Name, "setup"), core.Args{}); err != nil {
		t.Fatal(err)
	}
	if st.Served() != 0 {
		t.Fatal("fresh server served requests")
	}
}
