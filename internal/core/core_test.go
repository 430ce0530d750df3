package core

import (
	"fmt"
	"strings"
	"testing"

	"flexos/internal/config"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/mem"
)

func parseConfig(text string) (*config.Config, error) { return config.Parse(text) }

// testCatalog builds a miniature system: an "app" that calls a "svc"
// library, plus a TCB "boot" component.
func testCatalog(t testing.TB) *Catalog {
	t.Helper()
	cat := NewCatalog()

	boot := NewComponent("boot")
	boot.TCB = true
	cat.MustRegister(boot)

	svc := NewComponent("svc")
	svc.PatchAdd, svc.PatchDel = 48, 8
	svc.AddShared(SharedVar{Name: "state", Size: 64})
	svc.AddFunc(&Func{
		Name: "ping", Work: 100, EntryPoint: true,
		Impl: func(ctx *Ctx, args ...any) (any, error) {
			if len(args) == 1 {
				return args[0], nil
			}
			return "pong", nil
		},
	})
	svc.AddFunc(&Func{Name: "internal", Work: 10})
	cat.MustRegister(svc)

	app := NewComponent("app")
	app.Imports = []string{"svc"}
	app.AddFunc(&Func{
		Name: "main", Work: 200, EntryPoint: true,
		Impl: func(ctx *Ctx, args ...any) (any, error) {
			return ctx.Call("svc", "ping")
		},
	})
	cat.MustRegister(app)
	return cat
}

func twoCompSpec(mech string, gm isolation.GateMode, sh isolation.Sharing) ImageSpec {
	return ImageSpec{
		Mechanism: mech,
		GateMode:  gm,
		Sharing:   sh,
		Comps: []CompSpec{
			{Name: "comp0", Libs: []string{"boot", "app"}},
			{Name: "comp1", Libs: []string{"svc"}},
		},
	}
}

func build(t testing.TB, spec ImageSpec) *Image {
	t.Helper()
	img, err := Build(testCatalog(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestBuildValidation(t *testing.T) {
	cat := testCatalog(t)
	if _, err := Build(cat, ImageSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	bad := twoCompSpec("mpk", 0, 0)
	bad.Comps[1].Libs = []string{"nonexistent"}
	if _, err := Build(cat, bad); err == nil {
		t.Fatal("unknown library accepted")
	}
	dup := twoCompSpec("mpk", 0, 0)
	dup.Comps[1].Libs = []string{"app"}
	if _, err := Build(cat, dup); err == nil {
		t.Fatal("library in two compartments accepted")
	}
	if _, err := Build(cat, ImageSpec{Mechanism: "trustzone", Comps: []CompSpec{{Name: "c", Libs: nil}}}); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestSameCompartmentCallIsZeroOverhead(t *testing.T) {
	// P4 / Fig. 3 step 3': same-compartment gates degenerate to plain
	// calls; a 1-compartment MPK image must cost the same as NONE.
	one := ImageSpec{Mechanism: "intel-mpk", Comps: []CompSpec{
		{Name: "c0", Libs: []string{"boot", "app", "svc"}},
	}}
	imgMPK := build(t, one)
	ctx, err := imgMPK.NewContext("t", "app")
	if err != nil {
		t.Fatal(err)
	}
	mpkCost := imgMPK.Mach.Clock.Span(func() {
		if _, err := ctx.Call("app", "main"); err != nil {
			t.Fatal(err)
		}
	})

	imgNone := build(t, ImageSpec{Mechanism: "none", Comps: []CompSpec{
		{Name: "c0", Libs: []string{"boot", "app", "svc"}},
	}})
	ctxN, _ := imgNone.NewContext("t", "app")
	noneCost := imgNone.Mach.Clock.Span(func() {
		if _, err := ctxN.Call("app", "main"); err != nil {
			t.Fatal(err)
		}
	})
	if mpkCost != noneCost {
		t.Fatalf("1-comp MPK cost %d != NONE cost %d; flexibility must be free", mpkCost, noneCost)
	}
	if imgMPK.Crossings() != 0 {
		t.Fatal("same-compartment calls must not count as crossings")
	}
}

func TestCrossCompartmentCallCostsGate(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
	ctx, err := img.NewContext("t", "app")
	if err != nil {
		t.Fatal(err)
	}
	total := img.Mach.Clock.Span(func() {
		out, err := ctx.Call("app", "main")
		if err != nil {
			t.Fatal(err)
		}
		if out != "pong" {
			t.Fatalf("call returned %v", out)
		}
	})
	// main work (200) + gate (108) + ping work (100) + small frame costs.
	if total < 408 {
		t.Fatalf("cross-compartment call cost %d, want >= 408", total)
	}
	if img.Crossings() != 1 {
		t.Fatalf("crossings = %d, want 1", img.Crossings())
	}
}

func TestHardeningMultipliesCalleeWork(t *testing.T) {
	plain := build(t, twoCompSpec("none", 0, 0))
	ctxP, _ := plain.NewContext("t", "app")
	base := plain.Mach.Clock.Span(func() { ctxP.Call("svc", "ping") })

	spec := twoCompSpec("none", 0, 0)
	spec.Comps[1].Hardening = harden.NewSet(harden.All)
	hard := build(t, spec)
	ctxH, _ := hard.NewContext("t", "app")
	hardened := hard.Mach.Clock.Span(func() { ctxH.Call("svc", "ping") })

	if hardened <= base {
		t.Fatalf("hardened call (%d) not slower than plain (%d)", hardened, base)
	}
	// Roughly the ~2x multiplier on the work portion.
	if float64(hardened) < 1.5*float64(base) {
		t.Fatalf("hardening effect too small: %d vs %d", hardened, base)
	}
}

func TestReturnValueAndArgs(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", 0, 0))
	ctx, _ := img.NewContext("t", "app")
	out, err := ctx.Call("svc", "ping", 42)
	if err != nil {
		t.Fatal(err)
	}
	if out != 42 {
		t.Fatalf("gate did not marshal return value: %v", out)
	}
}

func TestCallUnknownTargets(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", 0, 0))
	ctx, _ := img.NewContext("t", "app")
	for _, tc := range []struct{ lib, fn, want string }{
		{"nolib", "f", `core: call into unknown library "nolib"`},
		{"svc", "nofunc", `core: library "svc" has no function "nofunc"`},
	} {
		_, err := ctx.Call(tc.lib, tc.fn)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Call(%q, %q) = %v, want %q", tc.lib, tc.fn, err, tc.want)
		}
	}
}

func TestNonEntryPointRejectedAcrossCompartments(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", 0, 0))
	ctx, _ := img.NewContext("t", "app")
	_, err := ctx.Call("svc", "internal")
	if !mem.IsFault(err, mem.FaultCFI) {
		t.Fatalf("cross-compartment call to non-entry: got %v, want CFI fault", err)
	}
	// But legal from within the same compartment.
	spec := ImageSpec{Mechanism: "intel-mpk", Comps: []CompSpec{
		{Name: "c0", Libs: []string{"boot", "app", "svc"}},
	}}
	img2 := build(t, spec)
	ctx2, _ := img2.NewContext("t", "app")
	if _, err := ctx2.Call("svc", "internal"); err != nil {
		t.Fatalf("intra-compartment internal call failed: %v", err)
	}
}

func TestRejectedNonEntryCallCharges(t *testing.T) {
	// A rejected crossing charges the callee's CFI forward-edge check,
	// if it has one, and nothing else: the gate refuses the entry point
	// before it charges its own cost or runs the callee's work.
	for _, tc := range []struct {
		hard harden.Set
		want uint64
	}{
		{harden.Set{}, 0},
		{harden.NewSet(harden.CFI), 4},
		{harden.NewSet(harden.CFI, harden.StackProtector, harden.KASan), 4},
	} {
		spec := twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS)
		spec.Comps[1].Hardening = tc.hard
		img := build(t, spec)
		ctx, _ := img.NewContext("t", "app")
		before := img.Mach.Clock.Cycles()
		if _, err := ctx.Call("svc", "internal"); !mem.IsFault(err, mem.FaultCFI) {
			t.Fatalf("%v: got %v, want CFI fault", tc.hard, err)
		}
		if got := img.Mach.Clock.Cycles() - before; got != tc.want {
			t.Errorf("%v: rejected call charged %d cycles, want %d", tc.hard, got, tc.want)
		}
	}
}

// chainCatalog returns a catalog whose "ping" and "pong" libraries call
// each other through "down" until level depth, so that consecutive
// levels alternate compartments when ping and pong are split. Level n
// returns "level-n" and checks what its callee returned. At level
// failAt-1, "down" makes the failing call instead: into pong's
// non-entry "hidden" (fault "cfi") or into pong's canary-smashing
// "smash" (fault "canary").
func chainCatalog(t *testing.T, depth, failAt int, fault string) *Catalog {
	t.Helper()
	cat := NewCatalog()
	boot := NewComponent("boot")
	boot.TCB = true
	cat.MustRegister(boot)
	for _, lib := range []string{"ping", "pong"} {
		other := map[string]string{"ping": "pong", "pong": "ping"}[lib]
		c := NewComponent(lib)
		c.AddFunc(&Func{Name: "down", Work: 10, EntryPoint: true,
			Impl: func(ctx *Ctx, args ...any) (any, error) {
				n := args[0].(int)
				if ctx.depth != n || ctx.CurrentLib() != lib {
					return nil, fmt.Errorf("level %d runs at depth %d in %s", n, ctx.depth, ctx.CurrentLib())
				}
				own := fmt.Sprintf("level-%d", n)
				if n == depth {
					return own, nil
				}
				comp := ctx.CurrentComp()
				if n+1 == failAt {
					fn := map[string]string{"cfi": "hidden", "canary": "smash"}[fault]
					_, err := ctx.Call("pong", fn)
					if ctx.depth != n || ctx.CurrentComp() != comp || ctx.CurrentLib() != lib {
						return nil, fmt.Errorf("level %d after a failed call: depth %d, in %s", n, ctx.depth, ctx.CurrentLib())
					}
					return nil, err
				}
				// Two calls at the next depth: the second reuses the
				// first's frame and must not clobber its result.
				first, err := ctx.Call(other, "down", n+1)
				if err != nil {
					return nil, err
				}
				second, err := ctx.Call(other, "echo", own)
				if err != nil {
					return nil, err
				}
				if want := fmt.Sprintf("level-%d", n+1); first != want || second != own {
					return nil, fmt.Errorf("level %d: callee returned %v then %v, want %s then %s", n, first, second, want, own)
				}
				if ctx.depth != n || ctx.CurrentComp() != comp || ctx.CurrentLib() != lib {
					return nil, fmt.Errorf("level %d after its calls: depth %d, in %s", n, ctx.depth, ctx.CurrentLib())
				}
				return own, nil
			}})
		c.AddFunc(&Func{Name: "echo", Work: 5, EntryPoint: true,
			Impl: func(ctx *Ctx, args ...any) (any, error) { return args[0], nil }})
		cat.MustRegister(c)
	}
	pong, _ := cat.Lookup("pong")
	pong.AddFunc(&Func{Name: "hidden", Work: 5})
	pong.AddFunc(&Func{Name: "smash", Work: 5, EntryPoint: true,
		Impl: func(ctx *Ctx, args ...any) (any, error) {
			st := ctx.Thread().Stack(ctx.CurrentComp().ID)
			for a := st.SP(); a < st.SP()+32; a += 8 {
				if err := ctx.WriteUint64(a, 0x4141414141414141); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}})
	return cat
}

// chainSpec splits ping and pong across an MPK gate; pong runs with
// the stack protector.
func chainSpec() ImageSpec {
	return ImageSpec{
		Mechanism: "intel-mpk", GateMode: isolation.GateFull, Sharing: isolation.ShareDSS,
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "ping"}},
			{Name: "c1", Libs: []string{"pong"},
				LibHardening: map[string]harden.Set{"pong": harden.NewSet(harden.StackProtector)}},
		},
	}
}

func TestCallFramesReusedWithoutClobbering(t *testing.T) {
	const depth = 10
	img, err := Build(chainCatalog(t, depth, 0, ""), chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := img.NewContext("t", "ping")
	for round := 0; round < 2; round++ {
		got, err := ctx.Call("pong", "down", 1)
		if err != nil || got != "level-1" {
			t.Fatalf("round %d: got %v, %v; want level-1", round, got, err)
		}
		if ctx.depth != 0 || len(ctx.frames) != depth+1 {
			t.Fatalf("round %d: depth %d with %d frames, want 0 with %d", round, ctx.depth, len(ctx.frames), depth+1)
		}
		for i, fr := range ctx.frames {
			if fr.site != nil || fr.args != nil || fr.ret != nil || len(fr.locals) != 0 {
				t.Fatalf("round %d: frame %d still holds its call", round, i)
			}
		}
	}
}

func TestFailedCallRestoresContext(t *testing.T) {
	for _, fault := range []struct {
		name string
		kind mem.FaultKind
	}{{"cfi", mem.FaultCFI}, {"canary", mem.FaultStackSmash}} {
		t.Run(fault.name, func(t *testing.T) {
			img, err := Build(chainCatalog(t, 6, 3, fault.name), chainSpec())
			if err != nil {
				t.Fatal(err)
			}
			ctx, _ := img.NewContext("t", "ping")
			comp := ctx.CurrentComp()
			stacks := make([]int, len(img.comps))
			for i, c := range img.comps {
				stacks[i] = ctx.Thread().Stack(c.ID).Depth()
			}
			if _, err := ctx.Call("pong", "down", 1); !mem.IsFault(err, fault.kind) {
				t.Fatalf("got %v, want a %s fault", err, fault.name)
			}
			if ctx.depth != 0 || ctx.CurrentComp() != comp || ctx.CurrentLib() != "ping" {
				t.Fatalf("after the fault: depth %d, in %s/%s", ctx.depth, ctx.CurrentComp().Name, ctx.CurrentLib())
			}
			for i, c := range img.comps {
				if d := ctx.Thread().Stack(c.ID).Depth(); d != stacks[i] {
					t.Fatalf("stack of %s left at depth %d, want %d", c.Name, d, stacks[i])
				}
			}
			if got, err := ctx.Call("pong", "echo", "after"); err != nil || got != "after" {
				t.Fatalf("next call: got %v, %v", got, err)
			}
		})
	}
}

func TestCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	restricted, err := Build(restrictedCatalog(t), restrictedSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		img              *Image
		start, lib, fn   string
		wantCrossingGate bool
	}{
		{"same-compartment", build(t, ImageSpec{Mechanism: "intel-mpk", Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "app", "svc"}},
		}}), "app", "svc", "ping", false},
		{"mpk-gate", build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS)),
			"app", "svc", "ping", true},
		// The callee's compartment holds a restricted-domain key, so
		// the gate's PKRU image covers extra keys.
		{"mpk-gate-extra-keys", restricted, "consumer", "sibling", "noop", true},
	} {
		ctx, err := tc.img.NewContext("t", tc.start)
		if err != nil {
			t.Fatal(err)
		}
		before := tc.img.Crossings()
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ctx.Call(tc.lib, tc.fn); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Ctx.Call allocated %v times per call, want 0", tc.name, allocs)
		}
		if crossed := tc.img.Crossings() > before; crossed != tc.wantCrossingGate {
			t.Errorf("%s: crossed a gate: %v, want %v", tc.name, crossed, tc.wantCrossingGate)
		}
	}
	if c, _ := restricted.Comp("sibling"); len(c.ExtraKeys) == 0 {
		t.Fatal("the restricted image gives the callee compartment no extra keys")
	}
}

func TestPrivateHeapIsolation(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", 0, 0))
	ctx, _ := img.NewContext("t", "app")

	// Allocate private data inside svc's compartment via a gate...
	addrAny, err := ctx.Call("svc", "ping", nil)
	_ = addrAny
	if err != nil {
		t.Fatal(err)
	}
	svcComp, _ := img.Comp("svc")
	privAddr, err := svcComp.Heap.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// ... the app thread (in comp0) cannot touch it directly.
	err = ctx.Read(privAddr, make([]byte, 8))
	if !mem.IsFault(err, mem.FaultKeyViolation) {
		t.Fatalf("private heap read from foreign compartment: got %v, want key violation", err)
	}
	// Shared heap is reachable from both sides.
	sh, err := ctx.AllocShared(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Write(sh, []byte("hello")); err != nil {
		t.Fatalf("shared heap write failed: %v", err)
	}
	if err := ctx.FreeShared(sh); err != nil {
		t.Fatal(err)
	}
}

func TestSharedAnnotationsPlacedInSharedDomain(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", 0, 0))
	addr, ok := img.SharedVarAddr("svc", "state")
	if !ok {
		t.Fatal("shared var not placed")
	}
	if img.AS.KeyAt(addr) != mem.KeyShared {
		t.Fatalf("shared var key = %d, want shared", img.AS.KeyAt(addr))
	}
	ctx, _ := img.NewContext("t", "app")
	// Both compartments can write it.
	if err := ctx.Write(addr, []byte("x")); err != nil {
		t.Fatalf("app write to __shared var: %v", err)
	}
	if _, err := ctx.Call("svc", "ping"); err != nil {
		t.Fatal(err)
	}
}

func TestDSSStackLayoutAndSharing(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
	ctx, _ := img.NewContext("t", "app")

	priv, err := ctx.StackAlloc(8, false)
	if err != nil {
		t.Fatal(err)
	}
	appComp, _ := img.Comp("app")
	if img.AS.KeyAt(priv) != appComp.Key {
		t.Fatalf("private local key = %d, want compartment key %d", img.AS.KeyAt(priv), appComp.Key)
	}

	shadow, err := ctx.StackAlloc(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if img.AS.KeyAt(shadow) != mem.KeyShared {
		t.Fatalf("DSS shadow key = %d, want shared", img.AS.KeyAt(shadow))
	}
	// The shadow is addressable from the other compartment too.
	if err := ctx.WriteUint64(shadow, 7); err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Call("svc", "ping", shadow)
	if err != nil || out != shadow {
		t.Fatalf("passing DSS pointer across: %v %v", out, err)
	}
	if img.DSSBytes() == 0 {
		t.Fatal("DSS bytes not accounted")
	}
}

func TestShareHeapConversionFreesOnReturn(t *testing.T) {
	cat := testCatalog(t)
	svcComp, _ := cat.Lookup("svc")
	var localAddr uintptr
	svcComp.AddFunc(&Func{
		Name: "with_local", Work: 10, EntryPoint: true,
		Impl: func(ctx *Ctx, args ...any) (any, error) {
			a, err := ctx.StackAlloc(16, true)
			localAddr = a
			return nil, err
		},
	})
	img, err := Build(cat, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareHeap))
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := img.NewContext("t", "app")
	if _, err := ctx.Call("svc", "with_local"); err != nil {
		t.Fatal(err)
	}
	if localAddr == 0 {
		t.Fatal("no heap-converted local allocated")
	}
	// The conversion must have been freed on return: allocating again
	// reuses the block.
	again, err := img.SharedHeap().Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if again != localAddr {
		t.Fatalf("heap-converted local leaked: got %#x, want reuse of %#x", again, localAddr)
	}
}

func TestStackProtectorAppliedPerCompartment(t *testing.T) {
	spec := twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS)
	spec.Comps[1].Hardening = harden.NewSet(harden.StackProtector)
	img := build(t, spec)
	ctx, _ := img.NewContext("t", "app")
	if _, err := ctx.Call("svc", "ping"); err != nil {
		t.Fatalf("hardened call failed: %v", err)
	}
}

func TestKASanCompartmentAllocator(t *testing.T) {
	spec := twoCompSpec("intel-mpk", 0, 0)
	spec.Comps[1].Hardening = harden.NewSet(harden.KASan)
	img := build(t, spec)
	svcComp, _ := img.Comp("svc")
	if !strings.HasPrefix(svcComp.Heap.Name(), "kasan+") {
		t.Fatalf("kasan compartment allocator = %q", svcComp.Heap.Name())
	}
	appComp, _ := img.Comp("app")
	if strings.HasPrefix(appComp.Heap.Name(), "kasan+") {
		t.Fatal("unhardened compartment must keep its plain allocator")
	}
	// Functional: OOB write in the hardened compartment faults.
	p, err := svcComp.Heap.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	err = img.AS.Write(mem.PKRUAllowAll, p+16, make([]byte, 8))
	if !mem.IsFault(err, mem.FaultKASanRedzone) {
		t.Fatalf("kasan OOB: got %v", err)
	}
}

func TestEPTImageTCBDuplication(t *testing.T) {
	img := build(t, twoCompSpec("vm-ept", 0, 0))
	r := img.Report()
	if r.Backend.VMs != 2 || r.Backend.TCBCopies != 2 {
		t.Fatalf("EPT report = %+v", r.Backend)
	}
	ctx, err := img.NewContext("t", "app")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Call("svc", "ping")
	if err != nil || out != "pong" {
		t.Fatalf("EPT RPC call: %v %v", out, err)
	}
}

func TestReportContents(t *testing.T) {
	spec := twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS)
	spec.Comps[1].Hardening = harden.NewSet(harden.CFI, harden.KASan)
	img := build(t, spec)
	r := img.Report()
	if r.Mechanism != "intel-mpk" || r.Sharing != "dss" {
		t.Fatalf("report header = %+v", r)
	}
	if len(r.Comps) != 2 || len(r.Gates) != 2 {
		t.Fatalf("report comps/gates = %d/%d", len(r.Comps), len(r.Gates))
	}
	if r.Gates[0].Cost != 108 {
		t.Fatalf("gate binding cost = %d, want 108", r.Gates[0].Cost)
	}
	if len(r.TCBLibs) != 1 || r.TCBLibs[0] != "boot" {
		t.Fatalf("TCB libs = %v", r.TCBLibs)
	}
	if len(r.Shared) != 1 || r.Shared[0].Lib != "svc" {
		t.Fatalf("shared vars = %+v", r.Shared)
	}
	text := r.String()
	for _, want := range []string{"intel-mpk", "comp0", "comp1", "mpk/full", "boot"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
}

func TestTableOne(t *testing.T) {
	rows := TableOne(testCatalog(t))
	if len(rows) != 1 || rows[0].Lib != "svc" || rows[0].SharedVars != 1 || rows[0].PatchAdd != 48 {
		t.Fatalf("TableOne = %+v", rows)
	}
}

func TestSpecFromConfigEndToEnd(t *testing.T) {
	cfgText := `
compartments:
- comp1:
    mechanism: intel-mpk
    default: true
- comp2:
    mechanism: intel-mpk
    hardening: [cfi, asan]
libraries:
- svc: comp2
gate: full
sharing: dss
`
	cfg, err := parseConfig(cfgText)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	spec, err := SpecFromConfig(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mechanism != "intel-mpk" || spec.GateMode != isolation.GateFull {
		t.Fatalf("spec = %+v", spec)
	}
	// Unassigned libs (app, boot) land in the default compartment.
	if len(spec.Comps) != 2 {
		t.Fatalf("comps = %+v", spec.Comps)
	}
	if got := len(spec.Comps[0].Libs); got != 2 {
		t.Fatalf("default compartment has %d libs, want 2 (app, boot)", got)
	}
	if !spec.Comps[1].Hardening.Has(harden.CFI) || !spec.Comps[1].Hardening.Has(harden.KASan) {
		t.Fatal("hardening lost in conversion")
	}
	img, err := Build(cat, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := img.NewContext("t", "app")
	if out, err := ctx.Call("app", "main"); err != nil || out != "pong" {
		t.Fatalf("end-to-end call: %v %v", out, err)
	}
}

func TestUBSanHelperThroughCtx(t *testing.T) {
	spec := twoCompSpec("none", 0, 0)
	spec.Comps[1].Hardening = harden.NewSet(harden.UBSan)
	img := build(t, spec)
	cat := img.Catalog
	svcComp, _ := cat.Lookup("svc")
	_ = svcComp
	ctx, _ := img.NewContext("t", "app")
	_ = ctx
	c1, _ := img.CompByName("comp1")
	if _, err := c1.Hardening.CheckedAdd(1<<62, 1<<62); err == nil {
		t.Fatal("ubsan helper did not trap")
	}
}

func TestVerifiedComponentTracking(t *testing.T) {
	// §7 "Incremental Verification": a verified component isolated in
	// its own compartment keeps its proven properties; colocated with
	// unverified code it does not.
	cat := testCatalog(t)
	svcComp, _ := cat.Lookup("svc")
	svcComp.Verified = true

	colocated, err := Build(cat, ImageSpec{Mechanism: "intel-mpk", Comps: []CompSpec{
		{Name: "c0", Libs: []string{"boot", "app", "svc"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := colocated.Report()
	if len(r.VerifiedLibs) != 1 || r.VerifiedLibs[0].Isolated {
		t.Fatalf("colocated verified report = %+v, want not isolated", r.VerifiedLibs)
	}

	isolated, err := Build(cat, twoCompSpec("intel-mpk", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	r = isolated.Report()
	if len(r.VerifiedLibs) != 1 || !r.VerifiedLibs[0].Isolated {
		t.Fatalf("isolated verified report = %+v, want isolated", r.VerifiedLibs)
	}
}
