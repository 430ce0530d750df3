package timesys

import (
	"testing"

	"flexos/internal/core"
	"flexos/internal/oslib"
)

func testImage(t *testing.T) (*core.Image, *State) {
	t.Helper()
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	Register(cat)
	img, err := core.Build(cat, core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0", Libs: append(oslib.TCB(), Name),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, img.State(Name).(*State)
}

func TestNowMonotonic(t *testing.T) {
	img, st := testImage(t)
	ctx, err := img.NewContext("t", Name)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ctx.Call(core.Symbol(Name, "now"), core.Args{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ctx.Call(core.Symbol(Name, "now"), core.Args{})
	if err != nil {
		t.Fatal(err)
	}
	if v2.W <= v1.W {
		t.Fatalf("clock not monotonic: %d then %d", v1.W, v2.W)
	}
	if st.Ticks() != 2 {
		t.Fatalf("ticks = %d, want 2", st.Ticks())
	}
}

func TestMonotonicDoesNotAdvance(t *testing.T) {
	img, st := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	ctx.Call(core.Symbol(Name, "now"), core.Args{})
	before := st.Ticks()
	v, err := ctx.Call(core.Symbol(Name, "monotonic"), core.Args{})
	if err != nil {
		t.Fatal(err)
	}
	if v.W != before || st.Ticks() != before {
		t.Fatal("monotonic read must not advance the clocksource")
	}
}

func TestNowChargesCycles(t *testing.T) {
	img, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	cost := img.Mach.Clock.Span(func() { ctx.Call(core.Symbol(Name, "now"), core.Args{}) })
	if cost < nowWork {
		t.Fatalf("now cost = %d, want >= %d", cost, nowWork)
	}
}

func TestTableOneMetadata(t *testing.T) {
	cat := core.NewCatalog()
	Register(cat)
	c, _ := cat.Lookup(Name)
	if c.PatchAdd != 10 || c.PatchDel != 9 || len(c.Shared) != 0 {
		t.Fatalf("Table 1 metadata = +%d/-%d, %d shared vars", c.PatchAdd, c.PatchDel, len(c.Shared))
	}
}
