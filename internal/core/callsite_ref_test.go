package core

import (
	"fmt"

	"flexos/internal/harden"
)

// refSite is a call resolved the way Ctx.Call resolved it on every call
// before Build tabulated call sites: the oracle the table is checked
// against.
type refSite struct {
	target      *CompRT
	f           *Func
	gate        *boundGate
	entry       string
	cfi, canary bool
	work        uint64
}

// refResolve resolves lib.fn called from compartment from by the
// per-call lookups: byLib, Catalog.Lookup and Func, the gate bound
// between the two compartments (found by scanning, not by index),
// EffectiveHardening, the entry concatenation and the work product.
func refResolve(img *Image, from *CompRT, lib, fn string) (refSite, error) {
	target, ok := img.byLib[lib]
	if !ok {
		return refSite{}, fmt.Errorf("core: call into unknown library %q", lib)
	}
	comp, _ := img.Catalog.Lookup(lib)
	f, ok := comp.Func(fn)
	if !ok {
		return refSite{}, fmt.Errorf("core: library %q has no function %q", lib, fn)
	}
	var gate *boundGate
	for i := range img.gates {
		if g := &img.gates[i]; g.from == from.ID && g.to == target.ID {
			gate = g
		}
	}
	if gate == nil {
		return refSite{}, fmt.Errorf("core: no gate bound %s -> %s", from.Name, target.Name)
	}
	effective := target.EffectiveHardening(lib)
	return refSite{
		target: target, f: f, gate: gate, entry: lib + "." + fn,
		cfi:    effective.Has(harden.CFI),
		canary: effective.Has(harden.StackProtector),
		work:   uint64(float64(float64(f.Work) * effective.WorkMultiplier())),
	}, nil
}

// DiffCallSites checks an image's call-site table against refResolve
// for every caller compartment, every library of the catalog and every
// function of that library, plus one function no library has. It
// returns one line per disagreement.
func DiffCallSites(img *Image) []string {
	var diffs []string
	for _, from := range img.comps {
		for _, lib := range img.Catalog.Names() {
			comp, _ := img.Catalog.Lookup(lib)
			for _, fn := range append(comp.FuncNames(), "no-such-function") {
				want, werr := refResolve(img, from, lib, fn)
				// What Ctx.Call resolves.
				var got refSite
				var gerr error
				if s, ok := img.sites[siteKey{lib, fn}]; !ok {
					gerr = img.unresolved(lib, fn)
				} else if s.lib != lib {
					gerr = fmt.Errorf("site of %s.%s records library %q", lib, fn, s.lib)
				} else {
					got = refSite{target: s.target, f: s.f, gate: img.gate(from.ID, s.target.ID),
						entry: s.entry, cfi: s.cfi, canary: s.canary, work: s.work}
				}
				if fmt.Sprint(werr) != fmt.Sprint(gerr) || got != want {
					diffs = append(diffs, fmt.Sprintf("%s -> %s.%s: table %+v (%v), reference %+v (%v)",
						from.Name, lib, fn, got, gerr, want, werr))
				}
			}
		}
	}
	return diffs
}
