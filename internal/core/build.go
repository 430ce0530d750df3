package core

import (
	"fmt"
	"slices"
	"strings"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/machine"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// CompRT is a compartment of a built image: the isolation-level
// compartment plus its libraries, hardening, allocator and section layout.
type CompRT struct {
	*isolation.Compartment
	Hardening harden.Set
	Libs      []*Component
	// states holds this image's state of each of Libs, by position:
	// what the component's NewState returned, or nil.
	states []any

	// Heap is the compartment's private allocator (KASan-wrapped when
	// the compartment enables kasan).
	Heap mem.Allocator

	// StaticBase/StaticSize delimit the compartment's private data,
	// rodata and bss sections, protected with the compartment's key by
	// the boot code (§4.1 "Data Ownership").
	StaticBase, StaticSize uintptr
	// HeapBase is the start of the compartment's heap arena.
	HeapBase uintptr
}

// placedVar is a __shared annotation as the builder placed it.
type placedVar struct {
	lib, name string
	size      int // the annotation's Size, or 8 when it gives none
	addr      uintptr
	key       mem.Key
}

// staticPagesPerComp sizes the simulated private sections.
const staticPagesPerComp = 4

// Image is a built FlexOS system: the output of the toolchain for one
// safety configuration. It owns the simulated machine, so building two
// images gives two independent, deterministic systems.
type Image struct {
	Spec    ImageSpec
	Catalog *Catalog

	Mach    *machine.Machine
	Sched   *sched.Scheduler
	AS      *mem.AddrSpace
	Backend isolation.Backend

	// host is the pooled memory behind AS, the heaps and the site, gate
	// and shared-variable tables; nil once the image is released.
	host *hostMem

	comps []*CompRT
	byLib map[string]*CompRT
	// sites resolves every (library, function) pair of the image,
	// indexed by its Sym; a pair the image lacks is nil or past the
	// end. gates holds the gate bound for each compartment pair, at
	// from*len(comps)+to.
	sites []*callSite
	gates []boundGate

	sharedHeap mem.Allocator
	// sharedVars holds every placed __shared annotation, in placement
	// order.
	sharedVars []placedVar
	restricted map[mem.Key]*mem.Bump

	stackCursor, stackEnd uintptr

	crossings uint64
	dssBytes  uintptr
}

// Build runs the build-time instantiation: compartment creation, backend
// initialization, section/heap/stack layout ("linker script generation"),
// gate binding ("source transformations"), hardening instrumentation, and
// shared-variable placement.
//
// The image's address space, heaps and tables come from a process-wide
// pool of host memory; Release returns them for the next Build to
// reuse.
func Build(cat *Catalog, spec ImageSpec) (*Image, error) {
	spec = spec.normalized()
	if err := spec.Validate(cat); err != nil {
		return nil, err
	}
	if err := spec.Costs.Validate(); err != nil {
		return nil, err
	}

	mach := machine.New(spec.Costs)
	host := hostPool.Get().(*hostMem)
	img := &Image{
		Spec:       spec,
		Catalog:    cat,
		Mach:       mach,
		Sched:      sched.New(mach),
		AS:         host.reset(spec, mach),
		host:       host,
		byLib:      make(map[string]*CompRT),
		restricted: make(map[mem.Key]*mem.Bump),
	}
	if err := img.build(); err != nil {
		img.Release()
		return nil, err
	}
	return img, nil
}

// build lays out and links the image Build drew.
func (img *Image) build() error {
	spec, cat, mach := img.Spec, img.Catalog, img.Mach

	// 1. Create compartments, give each linked component fresh state
	// and resolve every call site: its target compartment, its function
	// (whose EntryPoint flag crossing gates enforce: the gate insertion
	// step), state, and the callee library's effective hardening and
	// work charge.
	nsites, nshared := 0, 0
	for _, cs := range spec.Comps {
		for _, libName := range cs.Libs {
			comp, _ := cat.Lookup(libName)
			nsites += len(comp.funcs)
			nshared += len(comp.Shared)
		}
	}
	h := img.host
	sites := slices.Grow(h.sites[:0], nsites)
	var maxSym Sym
	for i, cs := range spec.Comps {
		iso := &isolation.Compartment{ID: sched.CompID(i), Name: cs.Name}
		rt := &CompRT{Compartment: iso, Hardening: cs.Hardening,
			Libs: make([]*Component, 0, len(cs.Libs)), states: make([]any, 0, len(cs.Libs))}
		for _, libName := range cs.Libs {
			comp, _ := cat.Lookup(libName)
			var state any
			if comp.NewState != nil {
				state = comp.NewState()
			}
			rt.Libs = append(rt.Libs, comp)
			rt.states = append(rt.states, state)
			img.byLib[libName] = rt
			hard := cs.libHardening(libName)
			for _, f := range comp.funcs {
				maxSym = max(maxSym, f.sym)
				sites = append(sites, callSite{
					sym: f.sym, target: rt, lib: libName, f: f.Func, state: state,
					hard: hard, work: scaleWork(f.Work, hard),
				})
			}
		}
		img.comps = append(img.comps, rt)
	}
	h.sites = sites
	img.sites = slices.Grow(h.sitePtrs[:0], int(maxSym)+1)[:maxSym+1]
	clear(img.sites)
	h.sitePtrs = img.sites
	for i := range sites {
		img.sites[sites[i].sym] = &sites[i]
	}

	// 2. Initialize the isolation backend (key / VM assignment, hooks).
	backend, err := isolation.ForName(spec.Mechanism)
	if err != nil {
		return err
	}
	sys := &isolation.System{Mach: mach, Sched: img.Sched, AS: img.AS}
	for _, c := range img.comps {
		sys.Comps = append(sys.Comps, c.Compartment)
	}
	if err := backend.Init(sys); err != nil {
		return err
	}
	img.Backend = backend

	// 3. Layout: static sections and heaps, protected with each
	// compartment's key at "boot time" (§4.1).
	cursor := uintptr(0)
	heapBytes := pagesBytes(spec.HeapPages)
	for _, c := range img.comps {
		c.StaticBase, c.StaticSize = cursor, staticPagesPerComp*mem.PageSize
		if err := img.AS.SetKeyRange(c.StaticBase, c.StaticSize, c.Key); err != nil {
			return err
		}
		cursor += c.StaticSize

		c.HeapBase = cursor
		arena, err := mem.NewArena(img.AS, cursor, heapBytes)
		if err != nil {
			return err
		}
		if err := arena.SetKey(c.Key); err != nil {
			return err
		}
		tlsf := h.tlsf(arena, mach)
		var heap mem.Allocator = tlsf
		kasan := c.Hardening.Has(harden.KASan)
		for _, hs := range spec.Comps[c.ID].LibHardening {
			kasan = kasan || hs.Has(harden.KASan)
		}
		if kasan {
			heap = mem.NewKASanAllocator(tlsf, img.AS, mach)
		}
		c.Heap = heap
		cursor += heapBytes
	}

	// 4. Shared communication heap (one shared domain; §4.1 notes one
	// shared heap is not a fundamental restriction).
	sharedArena, err := mem.NewArena(img.AS, cursor, heapBytes)
	if err != nil {
		return err
	}
	if err := sharedArena.SetKey(mem.KeyShared); err != nil {
		return err
	}
	img.sharedHeap = h.tlsf(sharedArena, mach)
	cursor += heapBytes

	// 5. Stack region: the rest of memory.
	img.stackCursor, img.stackEnd = cursor, uintptr(spec.MemBytes)

	// 6. Bind gates for every compartment pair — the build-time
	// replacement of abstract gates (Fig. 3 step 3/3').
	img.gates = slices.Grow(h.gates[:0], len(img.comps)*len(img.comps))
	for _, from := range img.comps {
		for _, to := range img.comps {
			g, err := backend.Gate(from.ID, to.ID, spec.GateMode)
			if err != nil {
				return err
			}
			img.gates = append(img.gates, boundGate{
				Gate: g, img: img,
				from: from.ID, to: to.ID,
				cross: from.ID != to.ID,
			})
		}
	}
	h.gates = img.gates

	// 7. Place __shared annotations. Whitelisted variables ("shared with
	// these libraries", §3.1) go to a restricted domain when the backend
	// offers one; variables whose whole whitelist lives in the owner's
	// compartment stay private; everything else lands in the global
	// shared domain.
	img.sharedVars = slices.Grow(h.shared[:0], nshared)
	for _, c := range img.comps {
		for _, comp := range c.Libs {
			for _, sv := range comp.Shared {
				v, err := img.placeSharedVar(c, comp.Name, sv)
				if err != nil {
					return fmt.Errorf("core: placing shared var %s.%s: %w", comp.Name, sv.Name, err)
				}
				img.sharedVars = append(img.sharedVars, v)
			}
		}
	}
	h.shared = img.sharedVars
	return nil
}

// restrictedArenaPages sizes each restricted shared domain's arena.
const restrictedArenaPages = 16

// placeSharedVar decides the protection domain of one annotation and
// allocates it there.
func (img *Image) placeSharedVar(owner *CompRT, lib string, sv SharedVar) (placedVar, error) {
	v := placedVar{lib: lib, name: sv.Name, size: sv.Size}
	if v.size <= 0 {
		v.size = 8
	}
	var err error
	// Resolve the whitelist to compartments.
	group := map[sched.CompID]bool{owner.ID: true}
	resolved := len(sv.With) > 0
	for _, peer := range sv.With {
		pc, ok := img.byLib[peer]
		if !ok {
			resolved = false
			break
		}
		group[pc.ID] = true
	}
	if resolved && len(group) == 1 {
		// Whole whitelist inside the owner's compartment: the variable
		// can stay private (zero sharing).
		v.addr, err = owner.Heap.Alloc(v.size)
		v.key = owner.Key
		return v, err
	}
	if resolved {
		if rs, ok := img.Backend.(isolation.RestrictedSharer); ok {
			ids := make([]sched.CompID, 0, len(group))
			for id := range group {
				ids = append(ids, id)
			}
			if key, ok := rs.RestrictedDomain(ids); ok {
				v.addr, err = img.restrictedAlloc(key, v.size)
				v.key = key
				return v, err
			}
		}
	}
	// Fallback: the global shared domain.
	v.addr, err = img.sharedHeap.Alloc(v.size)
	v.key = mem.KeyShared
	return v, err
}

// restrictedAlloc allocates from the arena backing a restricted shared
// domain, carving the arena out of the stack region on first use.
func (img *Image) restrictedAlloc(key mem.Key, size int) (uintptr, error) {
	al, ok := img.restricted[key]
	if !ok {
		length := uintptr(restrictedArenaPages) * mem.PageSize
		if img.stackCursor+length > img.stackEnd {
			return 0, fmt.Errorf("core: out of memory for restricted domain %d", key)
		}
		base := img.stackCursor
		img.stackCursor += length
		if err := img.AS.SetKeyRange(base, length, key); err != nil {
			return 0, err
		}
		arena, err := mem.NewArena(img.AS, base, length)
		if err != nil {
			return 0, err
		}
		al = mem.NewBump(arena, img.Mach)
		img.restricted[key] = al
	}
	return al.Alloc(size)
}

// boundGate decorates a backend gate with crossing accounting.
type boundGate struct {
	isolation.Gate
	img      *Image
	from, to sched.CompID
	cross    bool
	calls    uint64
}

func (g *boundGate) Call(t *sched.Thread, callee isolation.Callee) error {
	g.calls++
	if g.cross {
		g.img.crossings++
	}
	return g.Gate.Call(t, callee)
}

// callSite is one (library, function) pair of an image, resolved at
// build time: everything Ctx.Call needs except the gate, which depends
// on the calling compartment. The innermost open call's site says where
// execution is; a thread's entry frame holds a site with no function.
type callSite struct {
	sym    Sym
	target *CompRT
	lib    string
	f      *Func
	// state is the image's state of the callee's component.
	state any
	// hard is the callee library's effective hardening: CFI adds a
	// forward-edge check per entry, the stack protector a canary per
	// frame, and UBSan traps in Ctx.Hardening's helpers.
	hard harden.Set
	// work is f.Work under hard's multiplier.
	work uint64
}

// unresolved explains why lib.fn has no call site: the library is not
// in the image, or it has no such function.
func (img *Image) unresolved(lib, fn string) error {
	if _, ok := img.byLib[lib]; !ok {
		return fmt.Errorf("core: call into unknown library %q", lib)
	}
	return fmt.Errorf("core: library %q has no function %q", lib, fn)
}

// scaleWork returns the cost of cycles of compute under a hardening
// set. The product is rounded to float64 explicitly: without the
// conversion, ppc64le and riscv64 fuse it with the float-to-integer
// conversion into a multiply-subtract, and their cycle counts could
// drift from amd64's.
func scaleWork(cycles uint64, hs harden.Set) uint64 {
	return uint64(float64(float64(cycles) * hs.WorkMultiplier()))
}

// Comp returns the compartment hosting the given library.
func (img *Image) Comp(lib string) (*CompRT, bool) {
	c, ok := img.byLib[lib]
	return c, ok
}

// State returns the image's state of the component lib: what its
// NewState returned when Build linked it. It is nil when the image does
// not link lib or the component is stateless.
func (img *Image) State(lib string) any {
	if c, ok := img.byLib[lib]; ok {
		for i, l := range c.Libs {
			if l.Name == lib {
				return c.states[i]
			}
		}
	}
	return nil
}

// Compartments returns the image's compartments in ID order.
func (img *Image) Compartments() []*CompRT { return img.comps }

// SharedHeap returns the communication heap.
func (img *Image) SharedHeap() mem.Allocator { return img.sharedHeap }

// sharedVar returns the placement of lib's __shared annotation name:
// the last one placed, should lib annotate the name twice.
func (img *Image) sharedVar(lib, name string) (placedVar, bool) {
	for i := len(img.sharedVars) - 1; i >= 0; i-- {
		if v := img.sharedVars[i]; v.lib == lib && v.name == name {
			return v, true
		}
	}
	return placedVar{}, false
}

// SharedVarAddr returns the shared-domain address the builder assigned to
// a __shared annotation.
func (img *Image) SharedVarAddr(lib, name string) (uintptr, bool) {
	v, ok := img.sharedVar(lib, name)
	return v.addr, ok
}

// SharedVarKey returns the protection key of the domain a __shared
// annotation was placed in: the owner's key (whitelist fully local), a
// restricted pairwise key, or mem.KeyShared.
func (img *Image) SharedVarKey(lib, name string) (mem.Key, bool) {
	v, ok := img.sharedVar(lib, name)
	return v.key, ok
}

// RestrictedDomains returns how many restricted shared domains the image
// uses (report/test hook).
func (img *Image) RestrictedDomains() int { return len(img.restricted) }

// Crossings returns the number of cross-compartment gate transitions the
// image has performed.
func (img *Image) Crossings() uint64 { return img.crossings }

// DSSBytes returns the extra memory consumed by Data Shadow Stacks (the
// "stacks are twice as large" cost of §4.1).
func (img *Image) DSSBytes() uintptr { return img.dssBytes }

// gate returns the bound gate between two compartments.
func (img *Image) gate(from, to sched.CompID) *boundGate {
	return &img.gates[int(from)*len(img.comps)+int(to)]
}

// allocStackRegion carves a stack (plus DSS shadow if configured) out of
// the stack region, keying it according to the sharing strategy.
func (img *Image) allocStackRegion(c *CompRT) (*sched.Stack, error) {
	size := pagesBytes(img.Spec.StackPages)
	regionSize := size
	dss := img.Spec.Sharing == isolation.ShareDSS
	if dss {
		regionSize *= 2
	}
	if img.stackCursor+regionSize > img.stackEnd {
		return nil, fmt.Errorf("core: out of stack memory (image MemBytes too small)")
	}
	base := img.stackCursor
	img.stackCursor += regionSize

	switch img.Spec.Sharing {
	case isolation.ShareDSS:
		// Lower half private, upper half (the DSS) shared (Fig. 4).
		if err := img.AS.SetKeyRange(base, size, c.Key); err != nil {
			return nil, err
		}
		if err := img.AS.SetKeyRange(base+size, size, mem.KeyShared); err != nil {
			return nil, err
		}
		img.dssBytes += size
	case isolation.ShareStack:
		// Whole stack in the shared domain (lightweight configuration).
		if err := img.AS.SetKeyRange(base, size, mem.KeyShared); err != nil {
			return nil, err
		}
	default: // ShareHeap: private stack, shared locals go to the heap.
		if err := img.AS.SetKeyRange(base, size, c.Key); err != nil {
			return nil, err
		}
	}
	return sched.NewStack(img.AS, base, size, dss, img.Mach), nil
}

// Describe maps a simulated address to a human-readable description of
// the region it belongs to. It powers the porting workflow of §4.4: "run
// the program with a representative test case until it crashes due to
// memory access violations; crash reports point to the symbol that
// triggered the crash, at which point the developer can annotate it for
// sharing".
func (img *Image) Describe(addr uintptr) string {
	for _, v := range img.sharedVars {
		if addr >= v.addr && addr < v.addr+uintptr(v.size) {
			return fmt.Sprintf("__shared variable %s.%s", v.lib, v.name)
		}
	}
	for _, c := range img.comps {
		if addr >= c.StaticBase && addr < c.StaticBase+c.StaticSize {
			return fmt.Sprintf("static section of compartment %s", c.Name)
		}
		if addr >= c.HeapBase && addr < c.HeapBase+pagesBytes(img.Spec.HeapPages) {
			return fmt.Sprintf("private heap of compartment %s (libs: %s)", c.Name, c.libNames())
		}
	}
	key := img.AS.KeyAt(addr)
	switch {
	case key == mem.KeyShared:
		return "shared communication domain"
	case addr >= img.stackEnd:
		return "unmapped"
	case addr >= img.stackCursor:
		return "unused stack region"
	default:
		for _, c := range img.comps {
			if c.Key == key {
				return fmt.Sprintf("stack/restricted region of compartment %s", c.Name)
			}
		}
	}
	return fmt.Sprintf("region with key %d", key)
}

// ExplainFault augments a protection fault with the region description —
// the simulated GDB-style crash report of §4.4.
func (img *Image) ExplainFault(err error) string {
	f, ok := err.(*mem.Fault)
	if !ok {
		return err.Error()
	}
	return fmt.Sprintf("%v\n  faulting region: %s\n  hint: if this data must legitimately cross compartments, annotate it __shared or pass a DSS/shared-heap buffer", f, img.Describe(f.Addr))
}

// libNames joins a compartment's library names.
func (c *CompRT) libNames() string {
	names := make([]string, 0, len(c.Libs))
	for _, l := range c.Libs {
		names = append(names, l.Name)
	}
	return strings.Join(names, ",")
}
