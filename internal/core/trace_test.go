package core

import (
	"strings"
	"testing"

	"flexos/internal/isolation"
)

func TestTraceRecordsCrossings(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
	tr := img.EnableTrace(0)
	ctx, err := img.NewContext("t", "app")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ctx.Call(symPing, Args{}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Total() != 3 {
		t.Fatalf("trace total = %d, want 3", tr.Total())
	}
	if len(tr.Events) != 3 {
		t.Fatalf("events = %d", len(tr.Events))
	}
	e := tr.Events[0]
	if e.From != "comp0" || e.To != "comp1" || e.Entry != "svc.ping" {
		t.Fatalf("event = %+v", e)
	}
	if e.Cycles != 108 {
		t.Fatalf("event cost = %d, want 108", e.Cycles)
	}
	// Cycle stamps must be monotone.
	if tr.Events[1].StartCycle <= tr.Events[0].StartCycle {
		t.Fatal("event timestamps not monotone")
	}
	if !strings.Contains(tr.String(), "comp0 -> svc.ping") {
		t.Fatalf("profile missing edge:\n%s", tr.String())
	}
}

func TestTraceSameCompartmentCallsInvisible(t *testing.T) {
	img := build(t, ImageSpec{Mechanism: "intel-mpk", Comps: []CompSpec{
		{Name: "c0", Libs: []string{"boot", "app", "svc"}},
	}})
	tr := img.EnableTrace(0)
	ctx, _ := img.NewContext("t", "app")
	ctx.Call(symPing, Args{})
	if tr.Total() != 0 {
		t.Fatal("same-compartment calls must not appear in the crossing trace")
	}
}

func TestTraceCapBoundsMemory(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
	tr := img.EnableTrace(2)
	ctx, _ := img.NewContext("t", "app")
	for i := 0; i < 5; i++ {
		ctx.Call(symPing, Args{})
	}
	if len(tr.Events) != 2 {
		t.Fatalf("capped events = %d, want 2", len(tr.Events))
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5 (counting continues past cap)", tr.Total())
	}
}

func TestTraceIdempotentEnable(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", 0, 0))
	a := img.EnableTrace(0)
	b := img.EnableTrace(10)
	if a != b {
		t.Fatal("EnableTrace must be idempotent")
	}
}
