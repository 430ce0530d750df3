package core

import (
	"fmt"

	"flexos/internal/harden"
	"flexos/internal/isolation"
	"flexos/internal/machine"
	"flexos/internal/sched"
)

// Ctx is the execution context handed to component functions: it tracks
// the running thread, the compartment currently executing, and provides
// the abstract compartmentalization API — Call (abstract gates), memory
// accessors checked under the thread's protection domain, stack locals
// with the configured sharing strategy, and per-compartment heaps.
type Ctx struct {
	img    *Image
	th     *sched.Thread
	cur    *CompRT
	curLib string

	// frames holds one reusable frame per call depth: frames[0] is the
	// thread's entry frame and frames[depth] the innermost open call.
	frames []*frame
	depth  int
}

// frame is one open Call: the resolved call site, its arguments and
// return value, and the shared locals converted to heap allocations
// (freed on return; the costly strategy DSS replaces). A frame is the
// isolation.Callee its gate runs, and the next call at the same depth
// reuses it, so a call allocates nothing on the host.
type frame struct {
	ctx    *Ctx
	site   *callSite
	args   []any
	ret    any
	locals []uintptr
}

// NewContext spawns a thread whose entry point lives in the compartment
// owning startLib, allocates its per-compartment stacks (the stack
// registry), and returns the context.
func (img *Image) NewContext(name, startLib string) (*Ctx, error) {
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
	ctx := &Ctx{img: img, th: th, cur: comp, curLib: startLib}
	ctx.frames = append(ctx.frames, &frame{ctx: ctx})
	return ctx, nil
}

// Image returns the image this context runs on.
func (c *Ctx) Image() *Image { return c.img }

// Machine returns the simulated machine (clock + costs).
func (c *Ctx) Machine() *machine.Machine { return c.img.Mach }

// Thread returns the underlying thread.
func (c *Ctx) Thread() *sched.Thread { return c.th }

// CurrentLib returns the library currently executing.
func (c *Ctx) CurrentLib() string { return c.curLib }

// CurrentComp returns the compartment currently executing.
func (c *Ctx) CurrentComp() *CompRT { return c.cur }

// cfiCheckCycles is the forward-edge check cost charged per entry into
// CFI-instrumented code.
const cfiCheckCycles = 4

// Hardening returns the hardening in force for the currently executing
// library; component code uses it for instrumented arithmetic (UBSan
// helpers).
func (c *Ctx) Hardening() harden.Set { return c.cur.EffectiveHardening(c.curLib) }

// Call invokes lib.fn through the abstract gate bound at build time. When
// caller and callee share a compartment this is a plain function call;
// otherwise the configured backend's gate performs the domain transition.
// Work cycles are charged under the callee library's hardening
// multiplier. Build resolved the call site — target compartment, entry
// symbol, hardening flags and work charge — and bound a gate for every
// compartment pair, so a call is one table lookup and one slice index,
// like the paper's build-time gate binding, and costs no host allocation
// beyond what the callee itself allocates.
func (c *Ctx) Call(lib, fn string, args ...any) (any, error) {
	site, ok := c.img.sites[siteKey{lib, fn}]
	if !ok {
		return nil, c.img.unresolved(lib, fn)
	}
	if site.cfi {
		// Forward-edge check on entry into CFI-instrumented code.
		c.img.Mach.Charge(cfiCheckCycles)
	}
	gate := c.img.gate(c.cur.ID, site.target.ID)

	c.depth++
	if c.depth == len(c.frames) {
		c.frames = append(c.frames, &frame{ctx: c})
	}
	fr := c.frames[c.depth]
	fr.site, fr.args = site, args
	err := gate.Call(c.th, site.entry, fr)
	ret := fr.ret
	fr.site, fr.args, fr.ret = nil, nil, nil
	c.depth--
	if err != nil {
		return nil, err
	}
	return ret, nil
}

// Run implements isolation.Callee: it executes the frame's function in
// the callee compartment, between the stack frame push and pop.
func (fr *frame) Run() error {
	c, s := fr.ctx, fr.site
	prevComp, prevLib := c.cur, c.curLib
	c.cur, c.curLib = s.target, s.lib

	// Open a frame on the callee stack; the stack protector adds a
	// canary when the callee library hardens with it.
	st := c.th.Stack(s.target.ID)
	if st != nil {
		if err := st.PushFrame(c.th.PKRU, s.canary); err != nil {
			c.cur, c.curLib = prevComp, prevLib
			return err
		}
	}

	// Charge the function's compute under the callee's hardening.
	c.img.Mach.Charge(s.work)

	var err error
	if s.f.Impl != nil {
		fr.ret, err = s.f.Impl(c, fr.args...)
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
	c.cur, c.curLib = prevComp, prevLib
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
	st := c.th.Stack(c.cur.ID)
	if st == nil {
		return 0, fmt.Errorf("core: thread has no stack in compartment %s", c.cur.Name)
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
func (c *Ctx) AllocPrivate(n int) (uintptr, error) { return c.cur.Heap.Alloc(n) }

// FreePrivate returns a private-heap block.
func (c *Ctx) FreePrivate(addr uintptr) error { return c.cur.Heap.Free(addr) }

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
	c.img.Mach.Charge(scaleWork(cycles, c.cur.Hardening))
}
