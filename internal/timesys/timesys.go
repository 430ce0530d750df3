// Package timesys implements the uktime analogue: FlexOS' time subsystem.
// The paper uses it as the minimal porting example (Table 1: +10/-9 lines,
// zero shared variables, "10 minutes" of porting effort) and isolates it
// as its own compartment in the SQLite MPK3 scenario (§6.4).
package timesys

import "flexos/internal/core"

// Name is the component name used in configuration files.
const Name = "uktime"

// nowWork is the compute cost of reading the clocksource.
const nowWork = 30

// State is the time subsystem's per-image state.
type State struct {
	// ticks is a monotonic counter advanced on every read, standing in
	// for the hardware clocksource.
	ticks uint64
}

// Register adds the uktime component to the catalog.
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is uktime, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	c.PatchAdd, c.PatchDel = 10, 9 // Table 1
	c.NewState = func() any { return &State{} }

	c.AddFunc(&core.Func{
		Name: "now", Work: nowWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			st.ticks++
			return core.Ret{W: st.ticks}, nil
		},
	})
	c.AddFunc(&core.Func{
		Name: "monotonic", Work: nowWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			return core.Ret{W: ctx.State().(*State).ticks}, nil
		},
	})
	return c
}()

// Ticks exposes the counter for tests.
func (s *State) Ticks() uint64 { return s.ticks }
