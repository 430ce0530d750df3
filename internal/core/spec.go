package core

import (
	"fmt"
	"math"

	"flexos/internal/config"
	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/machine"
	"flexos/internal/mem"
)

// CompSpec describes one compartment of an image to build.
type CompSpec struct {
	// Name is the compartment identifier from the configuration file.
	Name string
	// Libs are the component names placed in this compartment.
	Libs []string
	// Hardening is the software hardening applied to the whole
	// compartment.
	Hardening harden.Set
	// LibHardening optionally adds hardening to individual libraries
	// within the compartment — the per-component toggles of Figure 6.
	// Compile-time instrumentation (work multipliers, canaries, UBSan) is
	// per library; allocator-based schemes (KASan) instrument the
	// compartment's allocator if any resident library requests them.
	LibHardening map[string]harden.Set
}

// libHardening returns the hardening applied to lib: the
// compartment-wide set plus the library's own toggles (Figure 6's
// per-component hardening).
func (cs CompSpec) libHardening(lib string) harden.Set {
	return cs.Hardening.Union(cs.LibHardening[lib])
}

// ImageSpec is the build-time safety configuration (P1-P3): the
// compartmentalization strategy, the isolation mechanism, the gate flavor,
// the data sharing strategy, and per-compartment hardening.
type ImageSpec struct {
	// Mechanism names the isolation backend ("none", "intel-mpk",
	// "vm-ept", "cheri").
	Mechanism string
	// GateMode selects the gate flavor for backends offering several.
	GateMode isolation.GateMode
	// Sharing selects the stack-data sharing strategy.
	Sharing isolation.Sharing
	// Comps lists the compartments. Compartment 0 is the default one and
	// receives every catalog component not explicitly assigned.
	Comps []CompSpec

	// Costs optionally overrides the calibrated cost model.
	Costs machine.CostModel

	// MemBytes sizes the simulated address space (default 32 MiB).
	MemBytes int
	// HeapPages sizes each compartment's private heap (default 512
	// pages) and the shared heap.
	HeapPages int
	// StackPages sizes thread stacks (default 8 pages, like the paper's
	// "FlexOS uses small stacks (8 pages)").
	StackPages int
}

// Defaults applied by the builder.
const (
	defaultMemBytes   = 32 << 20
	defaultHeapPages  = 512
	defaultStackPages = 8
)

// normalized returns a copy with defaults filled in.
func (s ImageSpec) normalized() ImageSpec {
	if s.Mechanism == "" {
		s.Mechanism = "none"
	}
	if s.MemBytes == 0 {
		s.MemBytes = defaultMemBytes
	}
	if s.HeapPages == 0 {
		s.HeapPages = defaultHeapPages
	}
	if s.StackPages == 0 {
		s.StackPages = defaultStackPages
	}
	if s.Costs.FreqHz == 0 {
		s.Costs = machine.DefaultCosts()
	}
	return s
}

// Validate checks the spec against a catalog: compartments must be named
// and unique, every assigned library must exist, and heaps must fit the
// allocator.
func (s ImageSpec) Validate(cat *Catalog) error {
	if len(s.Comps) == 0 {
		return fmt.Errorf("core: image needs at least one compartment")
	}
	seenComp := map[string]bool{}
	seenLib := map[string]bool{}
	for _, c := range s.Comps {
		if c.Name == "" {
			return fmt.Errorf("core: compartment with empty name")
		}
		if seenComp[c.Name] {
			return fmt.Errorf("core: duplicate compartment %q", c.Name)
		}
		seenComp[c.Name] = true
		for _, lib := range c.Libs {
			if _, ok := cat.Lookup(lib); !ok {
				return fmt.Errorf("core: unknown library %q in compartment %q", lib, c.Name)
			}
			if seenLib[lib] {
				return fmt.Errorf("core: library %q placed in two compartments", lib)
			}
			seenLib[lib] = true
		}
	}
	if s.HeapPages > maxHeapPages {
		return fmt.Errorf("core: heap of %d pages exceeds the allocator's %d", s.HeapPages, maxHeapPages)
	}
	if err := s.Costs.Validate(); err != nil && s.Costs.FreqHz != 0 {
		return err
	}
	return nil
}

// maxHeapPages bounds HeapPages: a heap arena must stay under the 2 GiB
// mem.TLSF keeps block sizes in.
const maxHeapPages = math.MaxInt32 / mem.PageSize

// SpecFromConfig converts a parsed configuration file into an ImageSpec.
// Libraries not mentioned in the file land in the default compartment.
func SpecFromConfig(cfg *config.Config, cat *Catalog) (ImageSpec, error) {
	spec := ImageSpec{Mechanism: cfg.Mechanism()}

	// A "profile:" line threads the named machine's cost model into the
	// build, so a config file targeting the RISC-V port prices gates and
	// traps like the explorer's -profile flag does. Validation already
	// vetted the name; an unknown one still errors here for direct
	// SpecFromConfig callers.
	if cfg.Profile != "" {
		p, err := machine.ParseProfile(cfg.Profile)
		if err != nil {
			return ImageSpec{}, err
		}
		spec.Costs = p.Costs
	}

	switch cfg.Gate {
	case "light":
		spec.GateMode = isolation.GateLight
	case "full":
		spec.GateMode = isolation.GateFull
	}
	switch cfg.Sharing {
	case "heap":
		spec.Sharing = isolation.ShareHeap
	case "stack":
		spec.Sharing = isolation.ShareStack
	default:
		spec.Sharing = isolation.ShareDSS
	}

	def := cfg.DefaultCompartment()
	if def == nil {
		return ImageSpec{}, fmt.Errorf("core: configuration has no compartments")
	}

	// Default compartment first: it becomes compartment 0 and hosts the
	// TCB plus unassigned libraries.
	ordered := []config.Compartment{*def}
	for _, c := range cfg.Compartments {
		if c.Name != def.Name {
			ordered = append(ordered, c)
		}
	}

	assigned := map[string]string{}
	for _, a := range cfg.Libraries {
		assigned[a.Library] = a.Compartment
	}

	for _, c := range ordered {
		hs, err := harden.Parse(c.Hardening)
		if err != nil {
			return ImageSpec{}, err
		}
		cs := CompSpec{Name: c.Name, Hardening: hs}
		for _, a := range cfg.Libraries {
			if a.Compartment == c.Name {
				cs.Libs = append(cs.Libs, a.Library)
			}
		}
		if c.Name == def.Name {
			for _, lib := range cat.Names() {
				if _, ok := assigned[lib]; !ok {
					cs.Libs = append(cs.Libs, lib)
				}
			}
		}
		spec.Comps = append(spec.Comps, cs)
	}
	if err := spec.Validate(cat); err != nil {
		return ImageSpec{}, err
	}
	return spec, nil
}

// SharedKeyPages is a helper exposing the page count covered by the shared
// heap in reports.
func pagesBytes(pages int) uintptr { return uintptr(pages) * mem.PageSize }
