// Package nginx implements the Nginx miniature of the paper's evaluation
// (Fig. 6 bottom): a static HTTP server over the same four components as
// Redis. Its communication pattern differs in exactly the way §6.1
// highlights: scheduler interaction is minimal (isolating uksched costs
// ~6% instead of Redis's 43%) while more work happens inside the
// application and the network stack per request — which is why the same
// 80-configuration space produces a differently-shaped overhead
// distribution (Fig. 7).
//
// The package holds only the component; the nginx-* scenarios in
// internal/scenario drive it.
package nginx

import (
	"fmt"

	"flexos/internal/core"
	"flexos/internal/libc"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
)

// Name is the component name used in configuration files.
const Name = "libnginx"

// Components lists the Figure-6 components for Nginx images.
var Components = []string{Name, libc.Name, oslib.SchedName, netstack.Name}

// Calibration (cycles / counts per HTTP request). Nginx does more
// application-side work per request than Redis and touches the scheduler
// only once.
const (
	serveWork        = 1150
	routeWork        = 240
	acceptWork       = 420 // accept(2) + connection object setup
	schedCallsPerReq = 1
	bodySize         = 128
)

// State is the per-image server state: the static file cache.
type State struct {
	files    map[string]uintptr // path -> private heap buffer (bodySize)
	sock     int
	served   uint64
	accepted uint64
}

// Register adds libnginx to a catalog (Table 1: +470/-85, 36 shared
// variables).
func Register(cat *core.Catalog) *State {
	st := &State{files: make(map[string]uintptr)}
	c := core.NewComponent(Name)
	c.PatchAdd, c.PatchDel = 470, 85
	c.Imports = []string{libc.Name, oslib.SchedName, netstack.Name}
	for i := 0; i < 36; i++ {
		c.AddShared(core.SharedVar{Name: fmt.Sprintf("conn_buf_%d", i), Size: 64})
	}

	// setup(): listening socket plus the cached document root.
	c.AddFunc(&core.Func{
		Name: "setup", Work: 500, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			v, err := ctx.Call(netstack.Name, "socket")
			if err != nil {
				return nil, err
			}
			st.sock = v.(int)
			body := make([]byte, bodySize)
			for i := range body {
				body[i] = byte('a' + i%26)
			}
			addr, err := ctx.AllocPrivate(bodySize)
			if err != nil {
				return nil, err
			}
			if err := ctx.Write(addr, body); err != nil {
				return nil, err
			}
			st.files["/index.html"] = addr
			return st.sock, nil
		},
	})

	// serve_req handles one HTTP GET end to end.
	c.AddFunc(&core.Func{
		Name: "serve_req", Work: serveWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			reqBuf, err := ctx.StackAlloc(128, true)
			if err != nil {
				return nil, err
			}
			v, err := ctx.Call(netstack.Name, "recv", st.sock, reqBuf, 128)
			if err != nil {
				return nil, err
			}
			n := v.(int)
			if n == 0 {
				return false, nil
			}
			method, err := ctx.Call(libc.Name, "parse", reqBuf, n)
			if err != nil {
				return nil, err
			}
			if method.(string) != "GET" {
				return false, nil
			}
			// Route to the cached file.
			ctx.Charge(routeWork)
			addr, ok := st.files["/index.html"]
			if !ok {
				return false, nil
			}

			// Header + body into a shared transmit buffer.
			txBuf, err := ctx.StackAlloc(64+bodySize, true)
			if err != nil {
				return nil, err
			}
			hdr := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", bodySize)
			hn, err := ctx.Call(libc.Name, "format", txBuf, hdr)
			if err != nil {
				return nil, err
			}
			if _, err := ctx.Call(libc.Name, "memcpy", txBuf+uintptr(hn.(int)), addr, bodySize); err != nil {
				return nil, err
			}
			total := hn.(int) + bodySize
			if _, err := ctx.Call(netstack.Name, "send", st.sock, txBuf, total); err != nil {
				return nil, err
			}
			for i := 0; i < schedCallsPerReq; i++ {
				if _, err := ctx.Call(oslib.SchedName, "wake"); err != nil {
					return nil, err
				}
			}
			st.served++
			return true, nil
		},
	})
	// accept_conn models accepting a fresh TCP connection: the
	// non-keepalive half of the static/keepalive scenario mixes. It
	// touches the network stack (handshake bookkeeping) and wakes the
	// event loop, but reuses the listening socket's queue.
	c.AddFunc(&core.Func{
		Name: "accept_conn", Work: acceptWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			if _, err := ctx.Call(netstack.Name, "pending", st.sock); err != nil {
				return nil, err
			}
			if _, err := ctx.Call(oslib.SchedName, "wake"); err != nil {
				return nil, err
			}
			st.accepted++
			return st.accepted, nil
		},
	})
	cat.MustRegister(c)
	return st
}

// Served returns the number of completed requests (test hook).
func (st *State) Served() uint64 { return st.served }

// Accepted returns the number of accepted connections (test hook).
func (st *State) Accepted() uint64 { return st.accepted }

// Catalog builds a fresh catalog with everything an Nginx image needs.
func Catalog() (*core.Catalog, *State) {
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	oslib.RegisterSched(cat)
	libc.Register(cat)
	netstack.Register(cat)
	st := Register(cat)
	return cat, st
}

// Components4 returns the Figure 6 component quadruple as a fixed-size
// array (app, libc, scheduler, network stack).
func Components4() [4]string {
	return [4]string{Name, libc.Name, oslib.SchedName, netstack.Name}
}
