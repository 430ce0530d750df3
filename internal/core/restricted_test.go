package core

import (
	"testing"

	"flexos/internal/isolation"
	"flexos/internal/mem"
)

// restrictedCatalog builds three components: a producer sharing one
// variable with a whitelisted consumer only, one variable globally, and
// one variable whose whitelist stays inside its own compartment.
func restrictedCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	boot := NewComponent("boot")
	boot.TCB = true
	cat.MustRegister(boot)

	producer := NewComponent("producer")
	producer.AddShared(SharedVar{Name: "pairwise", Size: 32, With: []string{"consumer"}})
	producer.AddShared(SharedVar{Name: "global", Size: 32})
	producer.AddShared(SharedVar{Name: "local", Size: 32, With: []string{"sibling"}})
	producer.AddFunc(&Func{Name: "touch", Work: 10, EntryPoint: true,
		Impl: func(ctx *Ctx, a *Args) (Ret, error) {
			addr := uintptr(a.W[0])
			return Ret{}, ctx.Write(addr, []byte{1})
		}})
	cat.MustRegister(producer)

	sibling := NewComponent("sibling")
	sibling.AddFunc(&Func{Name: "noop", Work: 1, EntryPoint: true})
	cat.MustRegister(sibling)

	consumer := NewComponent("consumer")
	consumer.AddFunc(&Func{Name: "read_var", Work: 10, EntryPoint: true,
		Impl: func(ctx *Ctx, a *Args) (Ret, error) {
			addr := uintptr(a.W[0])
			buf := make([]byte, 1)
			err := ctx.Read(addr, buf)
			return Ret{W: uint64(buf[0])}, err
		}})
	cat.MustRegister(consumer)

	intruder := NewComponent("intruder")
	intruder.AddFunc(&Func{Name: "read_var", Work: 10, EntryPoint: true,
		Impl: func(ctx *Ctx, a *Args) (Ret, error) {
			addr := uintptr(a.W[0])
			buf := make([]byte, 1)
			err := ctx.Read(addr, buf)
			return Ret{W: uint64(buf[0])}, err
		}})
	cat.MustRegister(intruder)
	return cat
}

func restrictedSpec() ImageSpec {
	return ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "producer", "sibling"}},
			{Name: "c1", Libs: []string{"consumer"}},
			{Name: "c2", Libs: []string{"intruder"}},
		},
	}
}

func TestRestrictedDomainPlacement(t *testing.T) {
	img, err := Build(restrictedCatalog(t), restrictedSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The pairwise var lives under a restricted key: neither the
	// owner's key nor the global shared key.
	pairKey, ok := img.SharedVarKey("producer", "pairwise")
	if !ok {
		t.Fatal("pairwise var not placed")
	}
	prodComp, _ := img.Comp("producer")
	if pairKey == mem.KeyShared || pairKey == prodComp.Key {
		t.Fatalf("pairwise var key = %d, want a restricted key", pairKey)
	}
	// The unwhitelisted var falls back to the global shared domain.
	if k, _ := img.SharedVarKey("producer", "global"); k != mem.KeyShared {
		t.Fatalf("global var key = %d, want shared", k)
	}
	// The fully-local whitelist stays compartment private.
	if k, _ := img.SharedVarKey("producer", "local"); k != prodComp.Key {
		t.Fatalf("local var key = %d, want owner key %d", k, prodComp.Key)
	}
	if img.RestrictedDomains() != 1 {
		t.Fatalf("restricted domains = %d, want 1", img.RestrictedDomains())
	}
}

func TestRestrictedDomainEnforcement(t *testing.T) {
	img, err := Build(restrictedCatalog(t), restrictedSpec())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := img.SharedVarAddr("producer", "pairwise")
	ctx, err := img.NewContext("t", "producer")
	if err != nil {
		t.Fatal(err)
	}
	// Producer can write it.
	if _, err := ctx.Call(Symbol("producer", "touch"), Words(uint64(addr))); err != nil {
		t.Fatalf("producer write failed: %v", err)
	}
	// Whitelisted consumer (other compartment) can read it.
	if _, err := ctx.Call(Symbol("consumer", "read_var"), Words(uint64(addr))); err != nil {
		t.Fatalf("whitelisted consumer read failed: %v", err)
	}
	// The third compartment cannot — that is the whole point of
	// restricted domains over one global shared heap.
	_, err = ctx.Call(Symbol("intruder", "read_var"), Words(uint64(addr)))
	if !mem.IsFault(err, mem.FaultKeyViolation) {
		t.Fatalf("intruder read: got %v, want key violation", err)
	}
	// The global var, by contrast, is readable by everyone.
	gaddr, _ := img.SharedVarAddr("producer", "global")
	if _, err := ctx.Call(Symbol("intruder", "read_var"), Words(uint64(gaddr))); err != nil {
		t.Fatalf("global var read failed: %v", err)
	}
}

func TestRestrictedDomainReuseAndExhaustion(t *testing.T) {
	// Same whitelist group twice -> same key; and with no keys left the
	// builder falls back to the global shared domain instead of failing.
	cat := NewCatalog()
	boot := NewComponent("boot")
	boot.TCB = true
	cat.MustRegister(boot)
	a := NewComponent("a")
	a.AddShared(SharedVar{Name: "v1", Size: 8, With: []string{"b"}})
	a.AddShared(SharedVar{Name: "v2", Size: 8, With: []string{"b"}})
	a.AddFunc(&Func{Name: "noop", Work: 1, EntryPoint: true})
	cat.MustRegister(a)
	b := NewComponent("b")
	b.AddFunc(&Func{Name: "noop", Work: 1, EntryPoint: true})
	cat.MustRegister(b)

	img, err := Build(cat, ImageSpec{
		Mechanism: "intel-mpk",
		Comps: []CompSpec{
			{Name: "c0", Libs: []string{"boot", "a"}},
			{Name: "c1", Libs: []string{"b"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := img.SharedVarKey("a", "v1")
	k2, _ := img.SharedVarKey("a", "v2")
	if k1 != k2 {
		t.Fatalf("same group produced two keys: %d vs %d", k1, k2)
	}
	if img.RestrictedDomains() != 1 {
		t.Fatalf("restricted domains = %d, want 1", img.RestrictedDomains())
	}
}

func TestRestrictedFallbackWithoutSupportingBackend(t *testing.T) {
	// EPT has no restricted shared domains; whitelisted vars fall back
	// to the global shared window.
	spec := restrictedSpec()
	spec.Mechanism = "vm-ept"
	spec.GateMode = isolation.GateDefault
	img, err := Build(restrictedCatalog(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := img.SharedVarKey("producer", "pairwise"); k != mem.KeyShared {
		t.Fatalf("EPT pairwise var key = %d, want global shared", k)
	}
	if img.RestrictedDomains() != 0 {
		t.Fatal("EPT image should have no restricted domains")
	}
}
