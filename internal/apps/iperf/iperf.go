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
	"fmt"

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

// State is the per-image server state.
type State struct {
	sock     int
	received uint64
}

// Register adds libiperf to a catalog (Table 1: +15/-14, 4 shared
// variables).
func Register(cat *core.Catalog) *State {
	st := &State{}
	c := core.NewComponent(Name)
	c.PatchAdd, c.PatchDel = 15, 14
	for _, v := range []core.SharedVar{
		{Name: "recv_window", Size: 64},
		{Name: "perf_stats", Size: 64},
		{Name: "ctrl_block", Size: 32},
		{Name: "report_buf", Size: 64},
	} {
		c.AddShared(v)
	}
	c.Imports = []string{netstack.Name}

	c.AddFunc(&core.Func{
		Name: "setup", Work: 300, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			v, err := ctx.Call(netstack.Name, "socket")
			if err != nil {
				return nil, err
			}
			st.sock = v.(int)
			return st.sock, nil
		},
	})

	// recv_once(bufSize) performs one recv into a shared stack buffer of
	// the given size and returns the byte count.
	c.AddFunc(&core.Func{
		Name: "recv_once", Work: recvWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			size, ok := args[0].(int)
			if !ok {
				return nil, fmt.Errorf("iperf: recv_once(size int)")
			}
			buf, err := ctx.StackAlloc(size, true)
			if err != nil {
				return nil, err
			}
			v, err := ctx.Call(netstack.Name, "recv", st.sock, buf, size)
			if err != nil {
				return nil, err
			}
			st.received += uint64(v.(int))
			return v, nil
		},
	})
	cat.MustRegister(c)
	return st
}

// Received returns total bytes received by the application (test hook).
func (st *State) Received() uint64 { return st.received }

// Catalog builds a fresh catalog with everything an iPerf image needs.
func Catalog() (*core.Catalog, *State) {
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	oslib.RegisterSched(cat)
	libc.Register(cat)
	netstack.Register(cat)
	st := Register(cat)
	return cat, st
}
