package oslib

import (
	"testing"

	"flexos/internal/core"
)

func testImage(t *testing.T) (*core.Image, *SchedState) {
	t.Helper()
	cat := core.NewCatalog()
	RegisterTCB(cat)
	RegisterSched(cat)
	img, err := core.Build(cat, core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0", Libs: append(TCB(), SchedName),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, img.State(SchedName).(*SchedState)
}

func TestTCBFlags(t *testing.T) {
	cat := core.NewCatalog()
	RegisterTCB(cat)
	RegisterSched(cat)
	for _, name := range append(TCB(), SchedName) {
		c, ok := cat.Lookup(name)
		if !ok || !c.TCB {
			t.Fatalf("%s must be registered as TCB", name)
		}
	}
}

func TestSchedSurfaceCounters(t *testing.T) {
	img, st := testImage(t)
	ctx, _ := img.NewContext("t", SchedName)
	for i := 0; i < 3; i++ {
		if _, err := ctx.Call(core.Symbol(SchedName, "wake"), core.Args{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctx.Call(core.Symbol(SchedName, "block_poll"), core.Args{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call(core.Symbol(SchedName, "timer_arm"), core.Args{}); err != nil {
		t.Fatal(err)
	}
	if st.Wakes() != 3 || st.Blocks() != 1 {
		t.Fatalf("counters: %s", st)
	}
}

func TestCurrentReturnsThreadID(t *testing.T) {
	img, _ := testImage(t)
	ctx, _ := img.NewContext("t", SchedName)
	v, err := ctx.Call(core.Symbol(SchedName, "current"), core.Args{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != ctx.Thread().ID {
		t.Fatalf("current = %d, want %d", v.Int(), ctx.Thread().ID)
	}
}

func TestYieldContextSwitches(t *testing.T) {
	img, _ := testImage(t)
	ctxA, _ := img.NewContext("a", SchedName)
	if _, err := img.NewContext("b", SchedName); err != nil {
		t.Fatal(err)
	}
	before := img.Sched.Switches()
	if _, err := ctxA.Call(core.Symbol(SchedName, "yield"), core.Args{}); err != nil {
		t.Fatal(err)
	}
	if img.Sched.Switches() != before+1 {
		t.Fatal("yield did not context switch")
	}
}

func TestSchedTable1Metadata(t *testing.T) {
	cat := core.NewCatalog()
	RegisterSched(cat)
	c, _ := cat.Lookup(SchedName)
	if len(c.Shared) != 5 {
		t.Fatalf("uksched shared vars = %d, want 5 (Table 1)", len(c.Shared))
	}
	if c.PatchAdd != 48 || c.PatchDel != 8 {
		t.Fatalf("uksched patch = +%d/-%d", c.PatchAdd, c.PatchDel)
	}
}
