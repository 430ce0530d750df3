package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"flexos/internal/harden"
)

// refSite is a call resolved the way Ctx.Call resolved it on every call
// before Build tabulated call sites: the oracle the table is checked
// against.
type refSite struct {
	target *CompRT
	f      *Func
	gate   *boundGate
	// entryPoint and symbol are what a gate asks the callee: whether
	// another compartment may enter it, and its "lib.fn" name.
	entryPoint bool
	symbol     string
	hard       harden.Set
	work       uint64
}

// refResolve resolves lib.fn called from compartment from by the
// per-call lookups: byLib, Catalog.Lookup and Func, the gate bound
// between the two compartments (found by scanning, not by index), the
// effective hardening read from the spec of the compartment listing
// lib, the symbol concatenation and the work product.
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
	var effective harden.Set
	for _, cs := range img.Spec.Comps {
		if slices.Contains(cs.Libs, lib) {
			effective = cs.Hardening.Union(cs.LibHardening[lib])
		}
	}
	return refSite{
		target: target, f: f, gate: gate,
		entryPoint: f.EntryPoint, symbol: lib + "." + fn, hard: effective,
		work: uint64(float64(float64(f.Work) * effective.WorkMultiplier())),
	}, nil
}

// afterBuild numbers the pairs DiffCallSites interns after the image it
// checks was built.
var afterBuild atomic.Int64

// DiffCallSites checks an image's Sym-indexed call-site table against
// refResolve for every caller compartment, every library of the catalog
// and every function of that library, plus one function no library has
// and one function interned only now, after Build, whose Sym lies past
// the table. It returns one line per disagreement.
func DiffCallSites(img *Image) []string {
	var diffs []string
	late := fmt.Sprintf("after-build-%d", afterBuild.Add(1))
	for _, from := range img.comps {
		for _, lib := range img.Catalog.Names() {
			comp, _ := img.Catalog.Lookup(lib)
			fns := []string{"no-such-function"}
			for _, f := range comp.funcs {
				fns = append(fns, f.Name)
			}
			if lib == img.Catalog.Names()[0] {
				fns = append(fns, late)
			}
			for _, fn := range fns {
				want, werr := refResolve(img, from, lib, fn)
				// What Ctx.Call resolves.
				sym := Symbol(lib, fn)
				var s *callSite
				if uint(sym) < uint(len(img.sites)) {
					s = img.sites[sym]
				}
				var got refSite
				var gerr error
				switch {
				case s == nil:
					gerr = img.unresolved(sym.Name())
				case s.sym != sym || s.lib != lib || s.f.Name != fn:
					gerr = fmt.Errorf("slot of %s.%s holds %d, %s.%s", lib, fn, s.sym, s.lib, s.f.Name)
				default:
					callee := &frame{site: s}
					got = refSite{target: s.target, f: s.f, gate: img.gate(from.ID, s.target.ID),
						entryPoint: callee.EntryPoint(), symbol: callee.Symbol(), hard: s.hard, work: s.work}
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
