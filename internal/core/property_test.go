package core

import (
	"testing"
	"testing/quick"

	"flexos/internal/harden"
	"flexos/internal/isolation"
)

// Property: the clock never moves backwards through any sequence of
// calls, allocations and stack operations.
func TestClockMonotoneProperty(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
	ctx, err := img.NewContext("t", "app")
	if err != nil {
		t.Fatal(err)
	}
	f := func(ops []uint8) bool {
		last := img.Mach.Clock.Cycles()
		for _, op := range ops {
			switch op % 4 {
			case 0:
				ctx.Call(symPing, Args{})
			case 1:
				if p, err := ctx.AllocPrivate(int(op)%128 + 1); err == nil {
					ctx.FreePrivate(p)
				}
			case 2:
				if p, err := ctx.AllocShared(int(op)%128 + 1); err == nil {
					ctx.FreeShared(p)
				}
			case 3:
				ctx.StackAlloc(8, false)
			}
			now := img.Mach.Clock.Cycles()
			if now < last {
				return false
			}
			last = now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: two identically-specified images produce identical cycle
// counts for identical call sequences (determinism, the property the
// whole evaluation rests on).
func TestImageDeterminismProperty(t *testing.T) {
	f := func(seed []uint8) bool {
		run := func() uint64 {
			img := build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
			ctx, err := img.NewContext("t", "app")
			if err != nil {
				return 0
			}
			for _, s := range seed {
				if s%2 == 0 {
					ctx.Call(symPing, Args{})
				} else {
					ctx.Call(symMain, Args{})
				}
			}
			return img.Mach.Clock.Cycles()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: hardening a compartment never speeds it up, across random
// hardening sets (the monotonicity the poset assumes, now verified on
// the real runtime rather than the multiplier table).
func TestHardeningNeverSpeedsUpProperty(t *testing.T) {
	base := func(hs harden.Set) uint64 {
		spec := twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS)
		spec.Comps[1].Hardening = hs
		img := build(t, spec)
		ctx, err := img.NewContext("t", "app")
		if err != nil {
			t.Fatal(err)
		}
		return img.Mach.Clock.Span(func() {
			for i := 0; i < 10; i++ {
				ctx.Call(symPing, Args{})
			}
		})
	}
	plain := base(harden.Set{})
	f := func(mask uint8) bool {
		hs := harden.Set{}
		if mask&1 != 0 {
			hs = hs.With(harden.CFI)
		}
		if mask&2 != 0 {
			hs = hs.With(harden.KASan)
		}
		if mask&4 != 0 {
			hs = hs.With(harden.UBSan)
		}
		if mask&8 != 0 {
			hs = hs.With(harden.StackProtector)
		}
		return base(hs) >= plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// Property: the crossing counter equals the number of cross-compartment
// calls issued, for any call sequence.
func TestCrossingAccountingProperty(t *testing.T) {
	f := func(seq []bool) bool {
		img := build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
		ctx, err := img.NewContext("t", "app")
		if err != nil {
			return false
		}
		want := uint64(0)
		for _, cross := range seq {
			if cross {
				ctx.Call(symPing, Args{}) // app comp -> svc comp
				want++
			} else {
				ctx.Call(symMain, Args{}) // same comp entry, but main calls svc
				want++
			}
		}
		return img.Crossings() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
