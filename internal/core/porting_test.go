package core

import (
	"strings"
	"testing"

	"flexos/internal/isolation"
	"flexos/internal/mem"
)

// TestPortingWorkflow plays out §4.4's porting loop: run with gates
// inserted but data unannotated, crash on a memory access violation, let
// the crash report point at the offending region, annotate, succeed.
func TestPortingWorkflow(t *testing.T) {
	mkCatalog := func(annotated bool) *Catalog {
		cat := NewCatalog()
		boot := NewComponent("boot")
		boot.TCB = true
		cat.MustRegister(boot)

		// A freshly-ported library: its consumer passes a buffer in.
		lib := NewComponent("newlib2")
		lib.AddFunc(&Func{Name: "fill", Work: 40, EntryPoint: true,
			Impl: func(ctx *Ctx, a *Args) (Ret, error) {
				return Ret{}, ctx.Write(uintptr(a.W[0]), []byte("data"))
			}})
		cat.MustRegister(lib)

		app := NewComponent("app")
		app.AddFunc(&Func{Name: "main", Work: 40, EntryPoint: true,
			Impl: func(ctx *Ctx, _ *Args) (Ret, error) {
				var buf uintptr
				var err error
				if annotated {
					// After porting: the developer annotated the buffer
					// __shared, so it lives on the DSS.
					buf, err = ctx.StackAlloc(16, true)
				} else {
					// Before porting: plain private stack local.
					buf, err = ctx.StackAlloc(16, false)
				}
				if err != nil {
					return Ret{}, err
				}
				return ctx.Call(Symbol("newlib2", "fill"), Words(uint64(buf)))
			}})
		cat.MustRegister(app)
		return cat
	}
	spec := ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "app"}},
			{Name: "ported", Libs: []string{"newlib2"}},
		},
	}

	// Step 1: run the representative test case; it crashes.
	img, err := Build(mkCatalog(false), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := img.NewContext("t", "app")
	_, err = ctx.Call(Symbol("app", "main"), Args{})
	if !mem.IsFault(err, mem.FaultKeyViolation) {
		t.Fatalf("unported run: got %v, want memory access violation", err)
	}

	// Step 2: the crash report points at the region to annotate.
	report := img.ExplainFault(err)
	if !strings.Contains(report, "compartment c0") {
		t.Fatalf("crash report does not identify the owner:\n%s", report)
	}
	if !strings.Contains(report, "__shared") {
		t.Fatalf("crash report lacks the annotation hint:\n%s", report)
	}

	// Step 3: annotate and re-run — success.
	img2, err := Build(mkCatalog(true), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, _ := img2.NewContext("t", "app")
	if _, err := ctx2.Call(Symbol("app", "main"), Args{}); err != nil {
		t.Fatalf("annotated run failed: %v", err)
	}
}

func TestDescribeRegions(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", isolation.GateFull, isolation.ShareDSS))
	// Shared annotation.
	addr, _ := img.SharedVarAddr("svc", "state")
	if got := img.Describe(addr); !strings.Contains(got, "svc.state") {
		t.Fatalf("Describe(shared var) = %q", got)
	}
	// Private heap.
	svcComp, _ := img.Comp("svc")
	p, _ := svcComp.Heap.Alloc(16)
	if got := img.Describe(p); !strings.Contains(got, "private heap of compartment comp1") {
		t.Fatalf("Describe(private heap) = %q", got)
	}
	// Shared heap.
	sh, _ := img.SharedHeap().Alloc(16)
	if got := img.Describe(sh); !strings.Contains(got, "shared communication domain") {
		t.Fatalf("Describe(shared heap) = %q", got)
	}
	// Static section.
	if got := img.Describe(svcComp.StaticBase); !strings.Contains(got, "static section") {
		t.Fatalf("Describe(static) = %q", got)
	}
	// Non-fault errors pass through ExplainFault unchanged.
	if got := img.ExplainFault(errFake{}); got != "fake" {
		t.Fatalf("ExplainFault(non-fault) = %q", got)
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }
