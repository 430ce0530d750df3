package core

import (
	"fmt"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/machine"
	"flexos/internal/sched"
)

// Ctx is the execution context handed to component functions: it tracks
// the running thread and its open calls, and provides the abstract
// compartmentalization API — Call (abstract gates), memory accessors
// checked under the thread's protection domain, stack locals with the
// configured sharing strategy, and per-compartment heaps.
type Ctx struct {
	img *Image
	th  *sched.Thread

	// frames holds one reusable frame per call depth: frames[0] is the
	// thread's entry frame and frames[depth] the innermost open call,
	// whose site gives the compartment, library, hardening and state
	// execution is in.
	frames []*frame
	depth  int
}

// frame is one open Call: the resolved call site, its argument frame
// and return value (both by value), and the shared locals converted to
// heap allocations (freed on return; the costly strategy DSS replaces).
// A frame is the isolation.Callee its gate runs, and the next call at
// the same depth reuses it, so a call allocates nothing on the host.
type frame struct {
	ctx    *Ctx
	site   *callSite
	args   Args
	ret    Ret
	locals []uintptr
}

// NewContext spawns a thread whose entry point lives in the compartment
// owning startLib, allocates its per-compartment stacks (the stack
// registry), and returns the context.
func (img *Image) NewContext(name, startLib string) (*Ctx, error) {
	if img.host == nil {
		panic("core: context on a released image")
	}
	comp, ok := img.byLib[startLib]
	if !ok {
		return nil, fmt.Errorf("core: no library %q in image", startLib)
	}
	th := img.Sched.Spawn(name, comp.ID)
	// One call stack per thread per compartment (§4.1).
	for _, c := range img.comps {
		st, err := img.allocStackRegion(c)
		if err != nil {
			return nil, err
		}
		th.SetStack(c.ID, st)
		if err := st.PushFrame(c.PKRU(), false); err != nil {
			return nil, err
		}
	}
	ctx := &Ctx{img: img, th: th}
	entry := &callSite{target: comp, lib: startLib, hard: img.Spec.Comps[comp.ID].libHardening(startLib)}
	ctx.frames = append(ctx.frames, &frame{ctx: ctx, site: entry})
	return ctx, nil
}

// Image returns the image this context runs on.
func (c *Ctx) Image() *Image { return c.img }

// Machine returns the simulated machine (clock + costs).
func (c *Ctx) Machine() *machine.Machine { return c.img.Mach }

// Thread returns the underlying thread.
func (c *Ctx) Thread() *sched.Thread { return c.th }

// site returns the innermost open call's site.
func (c *Ctx) site() *callSite { return c.frames[c.depth].site }

// CurrentLib returns the library currently executing.
func (c *Ctx) CurrentLib() string { return c.site().lib }

// CurrentComp returns the compartment currently executing.
func (c *Ctx) CurrentComp() *CompRT { return c.site().target }

// State returns the image's state of the component whose function is
// running: what that component's NewState returned when Build linked
// it, or nil for a stateless component or outside any call.
func (c *Ctx) State() any { return c.site().state }

// cfiCheckCycles is the forward-edge check cost charged per entry into
// CFI-instrumented code.
const cfiCheckCycles = 4

// Hardening returns the hardening in force for the currently executing
// library; component code uses it for instrumented arithmetic (UBSan
// helpers).
func (c *Ctx) Hardening() harden.Set { return c.site().hard }

// Call invokes the function sym names through the abstract gate bound
// at build time. When caller and callee share a compartment this is a
// plain function call; otherwise the configured backend's gate performs
// the domain transition. Work cycles are charged under the callee
// library's hardening multiplier. Build resolved the call site — target
// compartment, function, hardening and work charge — into a
// table indexed by Sym and bound a gate for every compartment pair, so a
// call is two slice indexes, like the paper's build-time gate binding.
// The argument frame and the return value travel by value, so a call
// costs no host allocation beyond what the callee itself allocates.
func (c *Ctx) Call(sym Sym, a Args) (Ret, error) {
	if c.img.host == nil {
		panic("core: call on a released image")
	}
	var site *callSite
	if uint(sym) < uint(len(c.img.sites)) {
		site = c.img.sites[sym]
	}
	if site == nil {
		return Ret{}, c.img.unresolved(sym.Name())
	}
	if site.hard.Has(harden.CFI) {
		// Forward-edge check on entry into CFI-instrumented code.
		c.img.Mach.Charge(cfiCheckCycles)
	}
	gate := c.img.gate(c.CurrentComp().ID, site.target.ID)

	c.depth++
	if c.depth == len(c.frames) {
		c.frames = append(c.frames, &frame{ctx: c})
	}
	fr := c.frames[c.depth]
	fr.site, fr.args = site, a
	err := gate.Call(c.th, fr)
	ret := fr.ret
	fr.site, fr.args, fr.ret = nil, Args{}, Ret{}
	c.depth--
	if err != nil {
		return Ret{}, err
	}
	return ret, nil
}

// EntryPoint implements isolation.Callee.
func (fr *frame) EntryPoint() bool { return fr.site.f.EntryPoint }

// Symbol implements isolation.Callee.
func (fr *frame) Symbol() string { return fr.site.lib + "." + fr.site.f.Name }

// Run implements isolation.Callee: it executes the frame's function in
// the callee compartment, between the stack frame push and pop. The
// frame is the innermost, so its site is where execution is.
func (fr *frame) Run() error {
	c, s := fr.ctx, fr.site

	// Open a frame on the callee stack; the stack protector adds a
	// canary when the callee library hardens with it.
	st := c.th.Stack(s.target.ID)
	if st != nil {
		if err := st.PushFrame(c.th.PKRU, s.hard.Has(harden.StackProtector)); err != nil {
			return err
		}
	}

	// Charge the function's compute under the callee's hardening.
	c.img.Mach.Charge(s.work)

	var err error
	if s.f.Impl != nil {
		fr.ret, err = s.f.Impl(c, &fr.args)
	}

	// Close the frame: free heap-converted locals, verify canary.
	for _, addr := range fr.locals {
		if ferr := c.img.sharedHeap.Free(addr); ferr != nil && err == nil {
			err = ferr
		}
	}
	fr.locals = fr.locals[:0]
	if st != nil {
		if perr := st.PopFrame(c.th.PKRU); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// StackAlloc allocates a local variable in the current frame. Shared
// locals follow the image's data sharing strategy:
//
//   - ShareDSS: a constant-cost shadow slot on the Data Shadow Stack;
//   - ShareStack: a plain slot (the whole stack is in the shared domain);
//   - ShareHeap: a stack-to-heap conversion — an allocation on the shared
//     heap, freed automatically when the enclosing call returns (this is
//     the 100-300+ cycle path of Fig. 11a).
func (c *Ctx) StackAlloc(n int, shared bool) (uintptr, error) {
	cur := c.CurrentComp()
	st := c.th.Stack(cur.ID)
	if st == nil {
		return 0, fmt.Errorf("core: thread has no stack in compartment %s", cur.Name)
	}
	if !shared {
		return st.AllocLocal(n, false)
	}
	switch c.img.Spec.Sharing {
	case isolation.ShareDSS:
		return st.AllocLocal(n, true)
	case isolation.ShareStack:
		return st.AllocLocal(n, false)
	default: // ShareHeap
		addr, err := c.img.sharedHeap.Alloc(n)
		if err != nil {
			return 0, err
		}
		fr := c.frames[c.depth]
		fr.locals = append(fr.locals, addr)
		return addr, nil
	}
}

// AllocPrivate allocates from the current compartment's private heap.
func (c *Ctx) AllocPrivate(n int) (uintptr, error) { return c.CurrentComp().Heap.Alloc(n) }

// FreePrivate returns a private-heap block.
func (c *Ctx) FreePrivate(addr uintptr) error { return c.CurrentComp().Heap.Free(addr) }

// AllocShared allocates from the shared communication heap.
func (c *Ctx) AllocShared(n int) (uintptr, error) { return c.img.sharedHeap.Alloc(n) }

// FreeShared returns a shared-heap block.
func (c *Ctx) FreeShared(addr uintptr) error { return c.img.sharedHeap.Free(addr) }

// Read performs a checked load under the thread's current protection
// domain.
func (c *Ctx) Read(addr uintptr, buf []byte) error {
	return c.img.AS.Read(c.th.PKRU, addr, buf)
}

// Write performs a checked store under the thread's current protection
// domain.
func (c *Ctx) Write(addr uintptr, data []byte) error {
	return c.img.AS.Write(c.th.PKRU, addr, data)
}

// Memmove performs a checked intra-image copy.
func (c *Ctx) Memmove(dst, src uintptr, n int) error {
	return c.img.AS.Memmove(c.th.PKRU, dst, src, n)
}

// ReadUint64 / WriteUint64 are checked 8-byte accessors.
func (c *Ctx) ReadUint64(addr uintptr) (uint64, error) {
	return c.img.AS.ReadUint64(c.th.PKRU, addr)
}

// WriteUint64 stores an 8-byte value under the current domain.
func (c *Ctx) WriteUint64(addr uintptr, v uint64) error {
	return c.img.AS.WriteUint64(c.th.PKRU, addr, v)
}

// SharedVarAddr resolves a __shared annotation to its shared-domain
// address.
func (c *Ctx) SharedVarAddr(lib, name string) (uintptr, bool) {
	return c.img.SharedVarAddr(lib, name)
}

// Yield cooperatively yields the CPU.
func (c *Ctx) Yield() { c.img.Sched.Yield() }

// Charge adds raw compute cycles under the current compartment's
// hardening multiplier; component bodies use it for data-dependent work
// (e.g. per-byte parsing loops).
func (c *Ctx) Charge(cycles uint64) {
	c.img.Mach.Charge(scaleWork(cycles, c.CurrentComp().Hardening))
}
