package explore

import (
	"testing"

	"flexos/internal/core"
)

// TestAnyFig6ConfigBuildsAndRuns is the builder's fuzz net: every point
// of the exploration space must build and execute without error, under
// every backend.
func TestAnyFig6ConfigBuildsAndRuns(t *testing.T) {
	comps := [4]string{"app", "svc", "drv", "io"}
	newCat := func() *core.Catalog {
		c := core.NewCatalog()
		boot := core.NewComponent("boot")
		boot.TCB = true
		c.MustRegister(boot)
		for _, name := range comps[1:] {
			comp := core.NewComponent(name)
			comp.AddFunc(&core.Func{Name: "entry", Work: 50, EntryPoint: true,
				Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) { return core.Ret{}, nil }})
			c.MustRegister(comp)
		}
		appComp := core.NewComponent("app")
		appComp.AddFunc(&core.Func{Name: "run", Work: 100, EntryPoint: true,
			Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
				for _, target := range comps[1:] {
					if _, err := ctx.Call(core.Symbol(target, "entry"), core.Args{}); err != nil {
						return core.Ret{}, err
					}
				}
				return core.Ret{}, nil
			}})
		c.MustRegister(appComp)
		return c
	}

	space := Fig6Space(comps)
	mechs := []string{"none", "intel-mpk", "vm-ept", "cheri", "intel-sgx"}
	for i, cfg := range space {
		mech := mechs[i%len(mechs)]
		cfg.Mechanism = mech
		spec := cfg.Spec([]string{"boot"})
		img, err := core.Build(newCat(), spec)
		if err != nil {
			t.Fatalf("config %d (%s, %s): build: %v", i, mech, cfg.Label(), err)
		}
		ctx, err := img.NewContext("t", "app")
		if err != nil {
			t.Fatalf("config %d: context: %v", i, err)
		}
		if _, err := ctx.Call(core.Symbol("app", "run"), core.Args{}); err != nil {
			t.Fatalf("config %d (%s, %s): run: %v", i, mech, cfg.Label(), err)
		}
	}
}
