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
	"strconv"

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

// The calls libnginx makes.
var (
	symSocket  = core.Symbol(netstack.Name, "socket")
	symRecv    = core.Symbol(netstack.Name, "recv")
	symSend    = core.Symbol(netstack.Name, "send")
	symPending = core.Symbol(netstack.Name, "pending")
	symParse   = core.Symbol(libc.Name, "parse")
	symFormat  = core.Symbol(libc.Name, "format")
	symMemcpy  = core.Symbol(libc.Name, "memcpy")
	symWake    = core.Symbol(oslib.SchedName, "wake")
)

// Process-wide constants: the response header, the cached document's
// body, and the 36 __shared connection buffers.
var (
	header    = []byte("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(bodySize) + "\r\n\r\n")
	indexBody = func() []byte {
		body := make([]byte, bodySize)
		for i := range body {
			body[i] = byte('a' + i%26)
		}
		return body
	}()
	sharedVars = func() []core.SharedVar {
		vs := make([]core.SharedVar, 36)
		for i := range vs {
			vs[i] = core.SharedVar{Name: fmt.Sprintf("conn_buf_%d", i), Size: 64}
		}
		return vs
	}()
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
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is libnginx, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	c.NewState = func() any { return &State{files: make(map[string]uintptr)} }
	c.PatchAdd, c.PatchDel = 470, 85
	c.Imports = []string{libc.Name, oslib.SchedName, netstack.Name}
	c.Shared = append(c.Shared, sharedVars...)

	// setup(): listening socket plus the cached document root.
	c.AddFunc(&core.Func{
		Name: "setup", Work: 500, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			v, err := ctx.Call(symSocket, core.Args{})
			if err != nil {
				return core.Ret{}, err
			}
			st.sock = v.Int()
			addr, err := ctx.AllocPrivate(bodySize)
			if err != nil {
				return core.Ret{}, err
			}
			if err := ctx.Write(addr, indexBody); err != nil {
				return core.Ret{}, err
			}
			st.files["/index.html"] = addr
			return core.Ret{W: uint64(st.sock)}, nil
		},
	})

	// serve_req handles one HTTP GET end to end.
	c.AddFunc(&core.Func{
		Name: "serve_req", Work: serveWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			reqBuf, err := ctx.StackAlloc(128, true)
			if err != nil {
				return core.Ret{}, err
			}
			v, err := ctx.Call(symRecv, core.Words(uint64(st.sock), uint64(reqBuf), 128))
			if err != nil {
				return core.Ret{}, err
			}
			n := v.W
			if n == 0 {
				return core.Ret{}, nil
			}
			method, err := ctx.Call(symParse, core.Words(uint64(reqBuf), n))
			if err != nil {
				return core.Ret{}, err
			}
			if method.S != "GET" {
				return core.Ret{}, nil
			}
			// Route to the cached file.
			ctx.Charge(routeWork)
			addr, ok := st.files["/index.html"]
			if !ok {
				return core.Ret{}, nil
			}

			// Header + body into a shared transmit buffer.
			txBuf, err := ctx.StackAlloc(64+bodySize, true)
			if err != nil {
				return core.Ret{}, err
			}
			fa := core.Words(uint64(txBuf))
			fa.B = header
			hn, err := ctx.Call(symFormat, fa)
			if err != nil {
				return core.Ret{}, err
			}
			if _, err := ctx.Call(symMemcpy, core.Words(uint64(txBuf)+hn.W, uint64(addr), bodySize)); err != nil {
				return core.Ret{}, err
			}
			total := hn.W + bodySize
			if _, err := ctx.Call(symSend, core.Words(uint64(st.sock), uint64(txBuf), total)); err != nil {
				return core.Ret{}, err
			}
			for i := 0; i < schedCallsPerReq; i++ {
				if _, err := ctx.Call(symWake, core.Args{}); err != nil {
					return core.Ret{}, err
				}
			}
			st.served++
			return core.Ret{W: 1}, nil
		},
	})
	// accept_conn models accepting a fresh TCP connection: the
	// non-keepalive half of the static/keepalive scenario mixes. It
	// touches the network stack (handshake bookkeeping) and wakes the
	// event loop, but reuses the listening socket's queue.
	c.AddFunc(&core.Func{
		Name: "accept_conn", Work: acceptWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			if _, err := ctx.Call(symPending, core.Words(uint64(st.sock))); err != nil {
				return core.Ret{}, err
			}
			if _, err := ctx.Call(symWake, core.Args{}); err != nil {
				return core.Ret{}, err
			}
			st.accepted++
			return core.Ret{W: st.accepted}, nil
		},
	})
	return c
}()

// Served returns the number of completed requests (test hook).
func (st *State) Served() uint64 { return st.served }
