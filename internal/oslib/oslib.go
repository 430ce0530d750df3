// Package oslib registers the kernel micro-library components that every
// FlexOS image links: the boot code and memory manager (TCB, §3.3) and
// the uksched scheduler component that Figure 6 isolates and hardens.
//
// The scheduler's mechanics (threads, stacks, context switches) live in
// internal/sched inside the TCB; the component registered here is its
// *callable surface* — the wake/sleep/event entry points applications hit
// on their hot paths, which is what makes isolating "uksched" expensive
// for Redis (43%!) and nearly free for Nginx (6%) in the paper.
package oslib

import (
	"fmt"

	"flexos/internal/core"
)

// Component names used in configuration files.
const (
	BootName  = "ukboot"
	MMName    = "ukmm"
	SchedName = "uksched"
)

// Scheduler component call costs (cycles). Event-loop bookkeeping calls
// are cheap individually; their frequency is what matters.
const (
	wakeWork    = 42
	blockWork   = 40
	timerWork   = 38
	currentWork = 18
)

// SchedState counts scheduler-surface activity per image. Build gives
// every image that links uksched a fresh one; read it with
// img.State(SchedName).(*SchedState).
type SchedState struct {
	wakes, blocks, timers uint64
}

// TCB lists the trusted-computing-base components every image links
// into its default compartment. Each call returns a fresh slice, so
// callers may append an image's other components to it.
func TCB() []string { return []string{BootName, MMName} }

// The TCB components, built once per process.
var (
	boot = (&core.Component{Name: BootName, TCB: true}).AddFunc(&core.Func{Name: "early_init", Work: 500, EntryPoint: true})
	mm   = (&core.Component{Name: MMName, TCB: true}).AddFunc(&core.Func{Name: "map_pages", Work: 300, EntryPoint: true})
)

// RegisterTCB adds the boot and memory-manager TCB components.
func RegisterTCB(cat *core.Catalog) {
	cat.MustRegister(boot)
	cat.MustRegister(mm)
}

// RegisterSched adds the uksched component (Table 1: +48/-8, 5 shared
// variables).
func RegisterSched(cat *core.Catalog) { cat.MustRegister(sched) }

// schedState returns the running image's scheduler state.
func schedState(ctx *core.Ctx) *SchedState { return ctx.State().(*SchedState) }

// sched is uksched, built once per process.
var sched = func() *core.Component {
	c := core.NewComponent(SchedName)
	c.TCB = true
	// The paper formally verified a version of its scheduler using
	// Dafny (§3.3).
	c.Verified = true
	c.PatchAdd, c.PatchDel = 48, 8
	c.NewState = func() any { return &SchedState{} }
	c.Shared = []core.SharedVar{
		{Name: "runqueue_len", Size: 8},
		{Name: "current_tid", Size: 8},
		{Name: "timer_next", Size: 8},
		{Name: "wait_bitmap", Size: 16},
		{Name: "idle_flag", Size: 8},
	}

	c.AddFunc(&core.Func{
		Name: "wake", Work: wakeWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			schedState(ctx).wakes++
			return core.Ret{}, nil
		},
	})
	c.AddFunc(&core.Func{
		Name: "block_poll", Work: blockWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			schedState(ctx).blocks++
			return core.Ret{}, nil
		},
	})
	c.AddFunc(&core.Func{
		Name: "timer_arm", Work: timerWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			schedState(ctx).timers++
			return core.Ret{}, nil
		},
	})
	c.AddFunc(&core.Func{
		Name: "current", Work: currentWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			return core.Ret{W: uint64(ctx.Thread().ID)}, nil
		},
	})
	// yield performs a real cooperative context switch; not on the
	// request hot path.
	c.AddFunc(&core.Func{
		Name: "yield", Work: 24, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			ctx.Yield()
			return core.Ret{}, nil
		},
	})
	return c
}()

// Wakes returns the number of wake calls (test hook).
func (s *SchedState) Wakes() uint64 { return s.wakes }

// Blocks returns the number of block_poll calls (test hook).
func (s *SchedState) Blocks() uint64 { return s.blocks }

// String implements fmt.Stringer.
func (s *SchedState) String() string {
	return fmt.Sprintf("uksched{wakes=%d blocks=%d timers=%d}", s.wakes, s.blocks, s.timers)
}
