// Package iperf implements the iPerf miniature of §6.3: a streaming
// server that reads from a socket into buffers of configurable size. The
// receive-buffer size sweep reproduces Figure 9's batching effect: at
// small buffers the domain-crossing latency dominates, at large buffers
// per-byte protocol processing does, so all backends converge to the
// baseline.
//
// The package holds only the component; the iperf-* scenarios in
// internal/scenario drive it.
package iperf

import (
	"flexos/internal/core"
	"flexos/internal/libc"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
)

// Name is the component name used in configuration files.
const Name = "libiperf"

// Components lists the components an iPerf image links.
var Components = []string{Name, libc.Name, oslib.SchedName, netstack.Name}

// recvWork is the application-side bookkeeping per recv call.
const recvWork = 160

// The calls libiperf makes.
var (
	symSocket = core.Symbol(netstack.Name, "socket")
	symRecv   = core.Symbol(netstack.Name, "recv")
)

// State is the per-image server state.
type State struct {
	sock     int
	received uint64
}

// Register adds libiperf to a catalog (Table 1: +15/-14, 4 shared
// variables).
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is libiperf, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	c.NewState = func() any { return &State{} }
	c.PatchAdd, c.PatchDel = 15, 14
	c.Shared = []core.SharedVar{
		{Name: "recv_window", Size: 64},
		{Name: "perf_stats", Size: 64},
		{Name: "ctrl_block", Size: 32},
		{Name: "report_buf", Size: 64},
	}
	c.Imports = []string{netstack.Name}

	c.AddFunc(&core.Func{
		Name: "setup", Work: 300, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			v, err := ctx.Call(symSocket, core.Args{})
			if err != nil {
				return core.Ret{}, err
			}
			st.sock = v.Int()
			return v, nil
		},
	})

	// recv_once(bufSize) performs one recv into a shared stack buffer of
	// the given size and returns the byte count.
	c.AddFunc(&core.Func{
		Name: "recv_once", Work: recvWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			size := int(a.W[0])
			buf, err := ctx.StackAlloc(size, true)
			if err != nil {
				return core.Ret{}, err
			}
			v, err := ctx.Call(symRecv, core.Words(uint64(st.sock), uint64(buf), uint64(size)))
			if err != nil {
				return core.Ret{}, err
			}
			st.received += v.W
			return v, nil
		},
	})
	return c
}()

// Received returns total bytes received by the application (test hook).
func (st *State) Received() uint64 { return st.received }
