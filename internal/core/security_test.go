package core

import (
	"testing"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/mem"
)

// attackCatalog models a compromised component ("evil") colocated with a
// victim holding secrets, under various safety configurations. Each test
// plays one attack from the paper's threat discussion and checks which
// configurations stop it.
func attackCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	boot := NewComponent("boot")
	boot.TCB = true
	cat.MustRegister(boot)

	victim := NewComponent("victim")
	victim.AddFunc(&Func{Name: "api", Work: 50, EntryPoint: true,
		Impl: func(ctx *Ctx, _ *Args) (Ret, error) { return Ret{S: "ok"}, nil }})
	victim.AddFunc(&Func{Name: "helper", Work: 10}) // not an entry point
	cat.MustRegister(victim)

	evil := NewComponent("evil")
	// arbitrary_read: the attacker's exploit primitive.
	evil.AddFunc(&Func{Name: "arbitrary_read", Work: 20, EntryPoint: true,
		Impl: func(ctx *Ctx, a *Args) (Ret, error) {
			addr := uintptr(a.W[0])
			buf := make([]byte, 8)
			if err := ctx.Read(addr, buf); err != nil {
				return Ret{}, err
			}
			return Ret{S: string(buf)}, nil
		}})
	// smash: overwrite the canary below the current frame.
	evil.AddFunc(&Func{Name: "smash", Work: 20, EntryPoint: true,
		Impl: func(ctx *Ctx, _ *Args) (Ret, error) {
			st := ctx.Thread().Stack(ctx.CurrentComp().ID)
			// Scribble over the stack including the canary slot.
			for a := st.SP(); a < st.SP()+32; a += 8 {
				if err := ctx.WriteUint64(a, 0x4141414141414141); err != nil {
					return Ret{}, err
				}
			}
			return Ret{}, nil
		}})
	// overflow: a classic heap overflow off an allocation.
	evil.AddFunc(&Func{Name: "overflow", Work: 20, EntryPoint: true,
		Impl: func(ctx *Ctx, _ *Args) (Ret, error) {
			p, err := ctx.AllocPrivate(24)
			if err != nil {
				return Ret{}, err
			}
			return Ret{}, ctx.Write(p, make([]byte, 64)) // 40 bytes OOB
		}})
	// uaf: use after free.
	evil.AddFunc(&Func{Name: "uaf", Work: 20, EntryPoint: true,
		Impl: func(ctx *Ctx, _ *Args) (Ret, error) {
			p, err := ctx.AllocPrivate(24)
			if err != nil {
				return Ret{}, err
			}
			if err := ctx.FreePrivate(p); err != nil {
				return Ret{}, err
			}
			return Ret{}, ctx.Read(p, make([]byte, 8))
		}})
	cat.MustRegister(evil)
	return cat
}

func plantSecret(t *testing.T, img *Image) uintptr {
	t.Helper()
	vc, _ := img.Comp("victim")
	addr, err := vc.Heap.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.AS.Write(mem.PKRUAllowAll, addr, []byte("S3CR3T!!")); err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestExfiltrationBlockedByEveryRealBackend(t *testing.T) {
	for _, mech := range []string{"intel-mpk", "vm-ept", "cheri", "intel-sgx"} {
		img, err := Build(attackCatalog(t), ImageSpec{
			Mechanism: mech,
			Comps: []CompSpec{
				{Name: "c0", Libs: []string{"boot", "victim"}},
				{Name: "evil", Libs: []string{"evil"}},
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		secret := plantSecret(t, img)
		ctx, _ := img.NewContext("t", "evil")
		_, err = ctx.Call(Symbol("evil", "arbitrary_read"), Words(uint64(secret)))
		if !mem.IsFault(err, mem.FaultKeyViolation) {
			t.Errorf("%s: exfiltration: got %v, want key violation", mech, err)
		}
	}
	// And the NONE baseline demonstrates why isolation matters.
	img, _ := Build(attackCatalog(t), ImageSpec{
		Mechanism: "none",
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "victim"}},
			{Name: "evil", Libs: []string{"evil"}},
		},
	})
	secret := plantSecret(t, img)
	ctx, _ := img.NewContext("t", "evil")
	out, err := ctx.Call(Symbol("evil", "arbitrary_read"), Words(uint64(secret)))
	if err != nil || out.S != "S3CR3T!!" {
		t.Fatalf("NONE image should leak: %v %v", out, err)
	}
}

func TestROPIntoCompartmentBlockedByGateCFI(t *testing.T) {
	// §4.1: compartments can only be entered at well-defined points;
	// jumping into a non-exported helper faults on every backend.
	for _, mech := range []string{"intel-mpk", "vm-ept", "cheri", "intel-sgx"} {
		img, err := Build(attackCatalog(t), ImageSpec{
			Mechanism: mech,
			Comps: []CompSpec{
				{Name: "c0", Libs: []string{"boot", "victim"}},
				{Name: "evil", Libs: []string{"evil"}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, _ := img.NewContext("t", "evil")
		_, err = ctx.Call(Symbol("victim", "helper"), Args{})
		if !mem.IsFault(err, mem.FaultCFI) {
			t.Errorf("%s: ROP into helper: got %v, want CFI fault", mech, err)
		}
		// The legal API entry still works.
		if out, err := ctx.Call(Symbol("victim", "api"), Args{}); err != nil || out.S != "ok" {
			t.Errorf("%s: legal entry failed: %v %v", mech, out, err)
		}
	}
}

func TestStackSmashCaughtByStackProtector(t *testing.T) {
	spec := ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "victim"}},
			{Name: "evil", Libs: []string{"evil"}, Hardening: harden.NewSet(harden.StackProtector)},
		},
	}
	img, err := Build(attackCatalog(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := img.NewContext("t", "evil")
	_, err = ctx.Call(Symbol("evil", "smash"), Args{})
	if !mem.IsFault(err, mem.FaultStackSmash) {
		t.Fatalf("smash with stack protector: got %v, want stack-smash fault", err)
	}
	// Without the protector the smash goes unnoticed (and that is the
	// configuration trade-off the poset ranks).
	spec.Comps[1].Hardening = harden.Set{}
	img2, _ := Build(attackCatalog(t), spec)
	ctx2, _ := img2.NewContext("t", "evil")
	if _, err := ctx2.Call(Symbol("evil", "smash"), Args{}); err != nil {
		t.Fatalf("unprotected smash should pass silently, got %v", err)
	}
}

func TestHeapOverflowCaughtByKASanOnly(t *testing.T) {
	mk := func(hs harden.Set) *Image {
		img, err := Build(attackCatalog(t), ImageSpec{
			Mechanism: "intel-mpk",
			Comps: []CompSpec{
				{Name: "c0", Libs: []string{"boot", "victim"}},
				{Name: "evil", Libs: []string{"evil"}, Hardening: hs},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	img := mk(harden.NewSet(harden.KASan))
	ctx, _ := img.NewContext("t", "evil")
	_, err := ctx.Call(Symbol("evil", "overflow"), Args{})
	if !mem.IsFault(err, mem.FaultKASanRedzone) {
		t.Fatalf("overflow under kasan: got %v, want redzone fault", err)
	}
	_, err = ctx.Call(Symbol("evil", "uaf"), Args{})
	if !mem.IsFault(err, mem.FaultKASanRedzone) {
		t.Fatalf("UAF under kasan: got %v, want redzone fault", err)
	}

	// The unhardened compartment misses both (within its own heap).
	img2 := mk(harden.Set{})
	ctx2, _ := img2.NewContext("t", "evil")
	if _, err := ctx2.Call(Symbol("evil", "overflow"), Args{}); err != nil {
		t.Fatalf("unhardened overflow should pass: %v", err)
	}
	if _, err := ctx2.Call(Symbol("evil", "uaf"), Args{}); err != nil {
		t.Fatalf("unhardened UAF should pass: %v", err)
	}
}

func TestPerCompartmentHardeningDoesNotTaxNeighbors(t *testing.T) {
	// §4.5: per-compartment allocators make hardening selective — the
	// victim's compartment stays uninstrumented when only evil's is
	// hardened.
	img, err := Build(attackCatalog(t), ImageSpec{
		Mechanism: "intel-mpk",
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "victim"}},
			{Name: "evil", Libs: []string{"evil"}, Hardening: harden.NewSet(harden.KASan)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vc, _ := img.Comp("victim")
	ec, _ := img.Comp("evil")
	if vc.Heap.Name() != "tlsf" {
		t.Fatalf("victim allocator = %q, want plain tlsf", vc.Heap.Name())
	}
	if ec.Heap.Name() != "kasan+tlsf" {
		t.Fatalf("evil allocator = %q, want kasan-wrapped", ec.Heap.Name())
	}
}

func TestVariableInterfaceSurface(t *testing.T) {
	// §3.3: "the system call API is divided into a variable number of
	// sub-interfaces depending on the chosen configuration" — more
	// compartments expose more, smaller gate surfaces. Count the entry
	// points of each compartment's libraries across configurations.
	surface := func(c *CompRT) int {
		n := 0
		for _, l := range c.Libs {
			for _, f := range l.funcs {
				if f.EntryPoint {
					n++
				}
			}
		}
		return n
	}
	cat := attackCatalog(t)
	one, err := Build(cat, ImageSpec{
		Mechanism: "intel-mpk",
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "victim", "evil"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One compartment: no cross-compartment surface at all.
	if got := surface(one.Compartments()[0]); got == 0 {
		t.Fatal("the libraries should still export entry points")
	}
	split, err := Build(attackCatalog(t), ImageSpec{
		Mechanism: "intel-mpk",
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot"}},
			{Name: "v", Libs: []string{"victim"}},
			{Name: "e", Libs: []string{"evil"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each compartment's attack surface is now only its own exports.
	vcomp, _ := split.Comp("victim")
	if got := surface(vcomp); got != 1 {
		t.Fatalf("victim surface = %d entries, want 1 (api only)", got)
	}
}
