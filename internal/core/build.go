package core

import (
	"fmt"
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
	libHard   map[string]harden.Set
	Libs      []*Component

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

	comps  []*CompRT
	byLib  map[string]*CompRT
	byName map[string]*CompRT
	// sites resolves every (library, function) pair of the image;
	// gates holds the gate bound for each compartment pair, at
	// from*len(comps)+to.
	sites map[siteKey]*callSite
	gates []boundGate

	sharedHeap    mem.Allocator
	sharedVars    map[string]uintptr
	sharedVarKeys map[string]mem.Key
	restricted    map[mem.Key]*mem.Bump

	stackCursor, stackEnd uintptr

	crossings uint64
	dssBytes  uintptr
	trace     *Trace
}

// Build runs the build-time instantiation: compartment creation, backend
// initialization, section/heap/stack layout ("linker script generation"),
// gate binding ("source transformations"), hardening instrumentation, and
// shared-variable placement.
func Build(cat *Catalog, spec ImageSpec) (*Image, error) {
	spec = spec.normalized()
	if err := spec.Validate(cat); err != nil {
		return nil, err
	}
	if err := spec.Costs.Validate(); err != nil {
		return nil, err
	}

	mach := machine.New(spec.Costs)
	img := &Image{
		Spec:          spec,
		Catalog:       cat,
		Mach:          mach,
		Sched:         sched.New(mach),
		AS:            mem.NewAddrSpace("flexos", spec.MemBytes, mach),
		byLib:         make(map[string]*CompRT),
		byName:        make(map[string]*CompRT),
		sharedVars:    make(map[string]uintptr),
		sharedVarKeys: make(map[string]mem.Key),
		restricted:    make(map[mem.Key]*mem.Bump),
	}

	// 1. Create compartments, register entry points (the gate
	// insertion step: the static call graph determines which symbols can
	// be entered from outside) and resolve every call site: its target
	// compartment, entry symbol, and the callee's hardening and work
	// charge.
	nsites := 0
	for _, cs := range spec.Comps {
		for _, libName := range cs.Libs {
			comp, _ := cat.Lookup(libName)
			nsites += len(comp.Funcs)
		}
	}
	sites := make([]callSite, 0, nsites)
	img.sites = make(map[siteKey]*callSite, nsites)
	for i, cs := range spec.Comps {
		iso := &isolation.Compartment{ID: sched.CompID(i), Name: cs.Name}
		rt := &CompRT{Compartment: iso, Hardening: cs.Hardening, libHard: cs.LibHardening}
		for _, libName := range cs.Libs {
			comp, _ := cat.Lookup(libName)
			rt.Libs = append(rt.Libs, comp)
			img.byLib[libName] = rt
			hard := rt.EffectiveHardening(libName)
			for _, fname := range comp.FuncNames() {
				f := comp.Funcs[fname]
				entry := libName + "." + fname
				if f.EntryPoint {
					iso.AddEntryPoint(entry)
				}
				sites = append(sites, callSite{
					target: rt, lib: libName, f: f, entry: entry,
					cfi:    hard.Has(harden.CFI),
					canary: hard.Has(harden.StackProtector),
					work:   scaleWork(f.Work, hard),
				})
				img.sites[siteKey{libName, fname}] = &sites[len(sites)-1]
			}
		}
		img.comps = append(img.comps, rt)
		img.byName[cs.Name] = rt
	}

	// 2. Initialize the isolation backend (key / VM assignment, hooks).
	backend, err := isolation.ForName(spec.Mechanism)
	if err != nil {
		return nil, err
	}
	sys := &isolation.System{Mach: mach, Sched: img.Sched, AS: img.AS}
	for _, c := range img.comps {
		sys.Comps = append(sys.Comps, c.Compartment)
	}
	if err := backend.Init(sys); err != nil {
		return nil, err
	}
	img.Backend = backend

	// 3. Layout: static sections and heaps, protected with each
	// compartment's key at "boot time" (§4.1).
	cursor := uintptr(0)
	heapBytes := pagesBytes(spec.HeapPages)
	for _, c := range img.comps {
		c.StaticBase, c.StaticSize = cursor, staticPagesPerComp*mem.PageSize
		if err := img.AS.SetKeyRange(c.StaticBase, c.StaticSize, c.Key); err != nil {
			return nil, err
		}
		cursor += c.StaticSize

		c.HeapBase = cursor
		arena, err := mem.NewArena(img.AS, cursor, heapBytes)
		if err != nil {
			return nil, err
		}
		if err := arena.SetKey(c.Key); err != nil {
			return nil, err
		}
		var heap mem.Allocator = mem.NewTLSF(arena, mach)
		kasan := c.Hardening.Has(harden.KASan)
		for _, hs := range c.libHard {
			kasan = kasan || hs.Has(harden.KASan)
		}
		if kasan {
			heap = mem.NewKASanAllocator(heap, img.AS, mach)
		}
		c.Heap = heap
		c.Compartment.Heap = heap
		cursor += heapBytes
	}

	// 4. Shared communication heap (one shared domain; §4.1 notes one
	// shared heap is not a fundamental restriction).
	sharedArena, err := mem.NewArena(img.AS, cursor, heapBytes)
	if err != nil {
		return nil, err
	}
	if err := sharedArena.SetKey(mem.KeyShared); err != nil {
		return nil, err
	}
	img.sharedHeap = mem.NewTLSF(sharedArena, mach)
	cursor += heapBytes
	for _, c := range img.comps {
		c.Compartment.SharedHeap = img.sharedHeap
	}

	// 5. Stack region: the rest of memory.
	img.stackCursor, img.stackEnd = cursor, uintptr(spec.MemBytes)

	// 6. Bind gates for every compartment pair — the build-time
	// replacement of abstract gates (Fig. 3 step 3/3').
	img.gates = make([]boundGate, 0, len(img.comps)*len(img.comps))
	for _, from := range img.comps {
		for _, to := range img.comps {
			g, err := backend.Gate(from.ID, to.ID, spec.GateMode)
			if err != nil {
				return nil, err
			}
			img.gates = append(img.gates, boundGate{
				Gate: g, img: img,
				from: from.ID, to: to.ID,
				cross: from.ID != to.ID,
			})
		}
	}

	// 7. Place __shared annotations. Whitelisted variables ("shared with
	// these libraries", §3.1) go to a restricted domain when the backend
	// offers one; variables whose whole whitelist lives in the owner's
	// compartment stay private; everything else lands in the global
	// shared domain.
	for _, c := range img.comps {
		for _, comp := range c.Libs {
			for _, sv := range comp.Shared {
				addr, key, err := img.placeSharedVar(c, comp.Name, sv)
				if err != nil {
					return nil, fmt.Errorf("core: placing shared var %s.%s: %w", comp.Name, sv.Name, err)
				}
				img.sharedVars[comp.Name+"."+sv.Name] = addr
				img.sharedVarKeys[comp.Name+"."+sv.Name] = key
			}
		}
	}
	return img, nil
}

// restrictedArenaPages sizes each restricted shared domain's arena.
const restrictedArenaPages = 16

// placeSharedVar decides the protection domain of one annotation and
// allocates it there. It returns the address and the key of the domain.
func (img *Image) placeSharedVar(owner *CompRT, lib string, sv SharedVar) (uintptr, mem.Key, error) {
	size := sv.Size
	if size <= 0 {
		size = 8
	}
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
		addr, err := owner.Heap.Alloc(size)
		return addr, owner.Key, err
	}
	if resolved {
		if rs, ok := img.Backend.(isolation.RestrictedSharer); ok {
			ids := make([]sched.CompID, 0, len(group))
			for id := range group {
				ids = append(ids, id)
			}
			if key, ok := rs.RestrictedDomain(ids); ok {
				addr, err := img.restrictedAlloc(key, size)
				return addr, key, err
			}
		}
	}
	// Fallback: the global shared domain.
	addr, err := img.sharedHeap.Alloc(size)
	return addr, mem.KeyShared, err
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

// boundGate decorates a backend gate with crossing accounting and
// optional tracing.
type boundGate struct {
	isolation.Gate
	img      *Image
	from, to sched.CompID
	cross    bool
	calls    uint64
}

func (g *boundGate) Call(t *sched.Thread, entry string, callee isolation.Callee) error {
	g.calls++
	if !g.cross {
		return g.Gate.Call(t, entry, callee)
	}
	g.img.crossings++
	if tr := g.img.trace; tr != nil {
		start := g.img.Mach.Clock.Cycles()
		err := g.Gate.Call(t, entry, callee)
		tr.record(g.from, g.to, entry, start, g.Gate.Cost())
		return err
	}
	return g.Gate.Call(t, entry, callee)
}

// siteKey names a call site: a library and one of its functions.
type siteKey struct{ lib, fn string }

// callSite is one (library, function) pair of an image, resolved at
// build time: everything Ctx.Call needs except the gate, which depends
// on the calling compartment.
type callSite struct {
	target *CompRT
	lib    string
	f      *Func
	// entry is the gate entry symbol, "lib.fn".
	entry string
	// cfi and canary record whether the callee library's effective
	// hardening includes CFI (a forward-edge check per entry) and the
	// stack protector (a canary per frame).
	cfi, canary bool
	// work is f.Work under the callee's hardening multiplier.
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

// EffectiveHardening returns the hardening applied to one library: the
// compartment-wide set plus the library's own toggles (Figure 6's
// per-component hardening).
func (c *CompRT) EffectiveHardening(lib string) harden.Set {
	return c.Hardening.Union(c.libHard[lib])
}

// Comp returns the compartment hosting the given library.
func (img *Image) Comp(lib string) (*CompRT, bool) {
	c, ok := img.byLib[lib]
	return c, ok
}

// CompByName returns a compartment by its configuration name.
func (img *Image) CompByName(name string) (*CompRT, bool) {
	c, ok := img.byName[name]
	return c, ok
}

// Compartments returns the image's compartments in ID order.
func (img *Image) Compartments() []*CompRT { return img.comps }

// SharedHeap returns the communication heap.
func (img *Image) SharedHeap() mem.Allocator { return img.sharedHeap }

// SharedVarAddr returns the shared-domain address the builder assigned to
// a __shared annotation.
func (img *Image) SharedVarAddr(lib, name string) (uintptr, bool) {
	a, ok := img.sharedVars[lib+"."+name]
	return a, ok
}

// SharedVarKey returns the protection key of the domain a __shared
// annotation was placed in: the owner's key (whitelist fully local), a
// restricted pairwise key, or mem.KeyShared.
func (img *Image) SharedVarKey(lib, name string) (mem.Key, bool) {
	k, ok := img.sharedVarKeys[lib+"."+name]
	return k, ok
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
	for name, a := range img.sharedVars {
		comp, _ := img.Catalog.Lookup(strings.SplitN(name, ".", 2)[0])
		var size int
		if comp != nil {
			for _, sv := range comp.Shared {
				if strings.HasSuffix(name, "."+sv.Name) {
					size = sv.Size
				}
			}
		}
		if size <= 0 {
			size = 8
		}
		if addr >= a && addr < a+uintptr(size) {
			return fmt.Sprintf("__shared variable %s", name)
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
