package iperf_test

import (
	"testing"

	"flexos/internal/apps/iperf"
	"flexos/internal/core"
	"flexos/internal/isolation"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
	"flexos/internal/scenario"
)

// stream runs a single-stream iPerf scenario of `packets` packets into
// bufSize-byte receive buffers and returns its goodput in Gb/s. The
// scenario itself fails unless every byte of every packet arrives.
func stream(t *testing.T, spec core.ImageSpec, bufSize, packets int) float64 {
	t.Helper()
	m, err := scenario.IPerfAt(bufSize).WithOps(packets).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops != packets {
		t.Fatalf("streamed %d packets, want %d", m.Ops, packets)
	}
	return m.Throughput * float64(bufSize) * 8 / 1e9
}

// specNone: FlexOS without isolation (== vanilla Unikraft in Fig. 9).
func specNone() core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0",
			Libs: append(oslib.TCB(), iperf.Components...),
		}},
	}
}

// specMPK2 is the Fig. 9 scenario: the iPerf application code in one
// compartment, the rest of the system (including the network stack) in a
// second one.
func specMPK2(mode isolation.GateMode, sharing isolation.Sharing) core.ImageSpec {
	return core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  mode,
		Sharing:   sharing,
		Comps: []core.CompSpec{
			{Name: "sys", Libs: append(oslib.TCB(), "newlib", oslib.SchedName, netstack.Name)},
			{Name: "app", Libs: []string{iperf.Name}},
		},
	}
}

func specEPT2() core.ImageSpec {
	s := specMPK2(isolation.GateDefault, isolation.ShareDSS)
	s.Mechanism = "vm-ept"
	return s
}

func TestStreamFunctional(t *testing.T) {
	gbps := stream(t, specNone(), 256, 50)
	if gbps <= 0 {
		t.Fatalf("goodput = %.3f Gb/s", gbps)
	}
}

func TestThroughputGrowsWithBufferSize(t *testing.T) {
	// Fig. 9: batching — bigger receive buffers mean fewer crossings
	// per byte, so throughput grows monotonically with buffer size.
	prev := 0.0
	for _, size := range []int{16, 64, 256, 1024, 4096, 16384} {
		gbps := stream(t, specMPK2(isolation.GateFull, isolation.ShareDSS), size, 40)
		if gbps <= prev {
			t.Fatalf("throughput not monotonic at %dB: %.3f <= %.3f", size, gbps, prev)
		}
		prev = gbps
	}
}

func TestBackendOrderingAtSmallBuffers(t *testing.T) {
	// Fig. 9 at small payloads: NONE > MPK-light > MPK-dss > EPT.
	none := stream(t, specNone(), 64, 50)
	light := stream(t, specMPK2(isolation.GateLight, isolation.ShareStack), 64, 50)
	dss := stream(t, specMPK2(isolation.GateFull, isolation.ShareDSS), 64, 50)
	ept := stream(t, specEPT2(), 64, 50)
	if !(none > light && light > dss && dss > ept) {
		t.Fatalf("ordering broken: none=%.3f light=%.3f dss=%.3f ept=%.3f",
			none, light, dss, ept)
	}
}

func TestBackendsConvergeAtLargeBuffers(t *testing.T) {
	// Fig. 9: from a few hundred bytes upward all backends approach the
	// baseline ("all backends can constitute a valid solution").
	const size = 16384
	none := stream(t, specNone(), size, 30)
	ept := stream(t, specEPT2(), size, 30)
	if ept < 0.9*none {
		t.Fatalf("EPT at 16KiB = %.3f Gb/s, want >= 90%% of baseline %.3f", ept, none)
	}
}

func TestPeakThroughputCalibration(t *testing.T) {
	// Fig. 9 tops out around 4-5 Gb/s on the calibrated machine.
	gbps := stream(t, specNone(), 16384, 30)
	if gbps < 3.0 || gbps > 7.0 {
		t.Fatalf("peak throughput = %.2f Gb/s, want ~4.4", gbps)
	}
}

func TestMPKCloseToBaselineAt128B(t *testing.T) {
	// Fig. 9: "MPK's performance quickly becomes similar to the baseline
	// starting from 128 B".
	none := stream(t, specNone(), 128, 50)
	dss := stream(t, specMPK2(isolation.GateFull, isolation.ShareDSS), 128, 50)
	if dss < 0.75*none {
		t.Fatalf("MPK-dss at 128B = %.3f, want >= 75%% of %.3f", dss, none)
	}
}
