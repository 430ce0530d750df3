// Package redis implements the Redis miniature used by the paper's
// headline evaluation (Fig. 6 top, Fig. 8): a key-value server whose GET
// path exercises the four Figure-6 components — the application itself
// ("libredis"), the C library ("newlib"), the scheduler surface
// ("uksched") and the network stack ("lwip").
//
// The per-request call pattern encodes the communication structure the
// paper measures: Redis's event loop talks to the scheduler intensely
// (isolating uksched costs ~43%) but crosses into lwip only twice per
// request (isolating lwip costs ~11%).
//
// The package holds only the component; the redis-get* scenarios in
// internal/scenario drive it.
package redis

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"flexos/internal/core"
	"flexos/internal/libc"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
)

// Name is the component name used in configuration files.
const Name = "libredis"

// Components lists the Figure-6 components, in the paper's row order.
var Components = []string{Name, libc.Name, oslib.SchedName, netstack.Name}

// Calibration (cycles / counts per GET request). See DESIGN.md.
const (
	serveWork        = 560 // event loop + command dispatch
	lookupWork       = 290 // hash + dict walk
	storeWork        = 340 // dict insert + value copy bookkeeping
	schedCallsPerReq = 10
	valueSize        = 16
	requestBytes     = "GET key\r\n"
)

// The calls libredis makes, and the replies it sends verbatim.
var (
	symSocket = core.Symbol(netstack.Name, "socket")
	symRecv   = core.Symbol(netstack.Name, "recv")
	symSend   = core.Symbol(netstack.Name, "send")
	symParse  = core.Symbol(libc.Name, "parse")
	symFormat = core.Symbol(libc.Name, "format")
	// symChatter is the scheduler call sequence of the event loop:
	// call i is symChatter[i%3].
	symChatter = [3]core.Sym{
		core.Symbol(oslib.SchedName, "wake"),
		core.Symbol(oslib.SchedName, "block_poll"),
		core.Symbol(oslib.SchedName, "timer_arm"),
	}

	okReply   = []byte("+OK\r\n")
	missReply = []byte("$-1\r\n")
)

// sharedVars are libredis's 16 __shared I/O buffers, named once per
// process.
var sharedVars = func() []core.SharedVar {
	vs := make([]core.SharedVar, 16)
	for i := range vs {
		vs[i] = core.SharedVar{Name: fmt.Sprintf("io_buf_%d", i), Size: 64}
	}
	return vs
}()

// keyNames holds the names setup preloads, "key0" onwards, built once
// per process: the shipped scenarios preload 64 keys.
var keyNames = func() []string {
	names := make([]string, 64)
	for i := range names {
		names[i] = "key" + strconv.Itoa(i)
	}
	return names
}()

// keyName returns the name of preloaded key i.
func keyName(i int) string {
	if i < len(keyNames) {
		return keyNames[i]
	}
	return "key" + strconv.Itoa(i)
}

// State is the per-image Redis state: the keyspace dictionary, which
// setup makes, sized for the keys it preloads. Values live in the
// compartment's private simulated heap. Released states are recycled:
// a later image's setup empties the dictionary and reuses it.
type State struct {
	values map[string]uintptr
	sock   int
	hits   uint64
	misses uint64
	sets   uint64

	// Host scratch reused by every request: the request bytes read back
	// from simulated memory, one value, and the reply being built.
	req   []byte
	val   [valueSize]byte
	reply []byte
}

// states holds released States for the next image.
var states = sync.Pool{New: func() any { return new(State) }}

// free resets st, keeping its dictionary and scratch, and hands it to
// the next image.
func (st *State) free() {
	clear(st.values)
	*st = State{values: st.values, req: st.req[:0], reply: st.reply[:0]}
	states.Put(st)
}

// Register adds libredis to a catalog (Table 1: +279/-90, 16 shared
// variables).
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is libredis, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	c.NewState = func() any { return states.Get() }
	c.FreeState = func(st any) { st.(*State).free() }
	c.PatchAdd, c.PatchDel = 279, 90
	c.Imports = []string{libc.Name, oslib.SchedName, netstack.Name}
	c.Shared = append(c.Shared, sharedVars...)

	// setup(keys): create the listening socket and preload keys.
	c.AddFunc(&core.Func{
		Name: "setup", Work: 400, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			keys := int(a.W[0])
			v, err := ctx.Call(symSocket, core.Args{})
			if err != nil {
				return core.Ret{}, err
			}
			st.sock = v.Int()
			if st.values == nil {
				st.values = make(map[string]uintptr, keys)
			} else {
				clear(st.values)
			}
			for i := 0; i < keys; i++ {
				addr, err := ctx.AllocPrivate(valueSize)
				if err != nil {
					return core.Ret{}, err
				}
				val := AppendPadded(append(st.val[:0], "value-"...), i, 10)
				if err := ctx.Write(addr, val); err != nil {
					return core.Ret{}, err
				}
				st.values[keyName(i)] = addr
			}
			return core.Ret{W: uint64(st.sock)}, nil
		},
	})

	// serve_get handles one GET request end to end and returns true on a
	// hit. It is the hot path Figure 6 measures.
	c.AddFunc(&core.Func{
		Name: "serve_get", Work: serveWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			reqBuf, n, cmd, err := st.recvCommand(ctx)
			if err != nil {
				return core.Ret{}, err
			}
			if n == 0 || cmd != "GET" {
				st.misses++
				return core.Ret{}, nil
			}
			key, err := st.parseKey(ctx, reqBuf, n)
			if err != nil {
				return core.Ret{}, err
			}

			// Dictionary lookup + value fetch from the private heap.
			ctx.Charge(lookupWork)
			valAddr, hit := st.values[string(key)]
			reply := missReply
			if hit {
				if err := ctx.Read(valAddr, st.val[:]); err != nil {
					return core.Ret{}, err
				}
				reply = append(st.reply[:0], '$')
				reply = strconv.AppendInt(reply, valueSize, 10)
				reply = append(reply, "\r\n"...)
				reply = append(reply, st.val[:]...)
				reply = append(reply, "\r\n"...)
				st.reply = reply
				st.hits++
			} else {
				st.misses++
			}

			if err := st.sendReply(ctx, reply); err != nil {
				return core.Ret{}, err
			}
			if err := eventLoopChatter(ctx); err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: core.Bool(hit)}, nil
		},
	})
	// serve_set handles one SET request end to end: parse, store the
	// value into the compartment's private heap (reusing the slot on
	// overwrite), acknowledge. It is the write half of the GET/SET mixes
	// the multi-metric scenarios run.
	c.AddFunc(&core.Func{
		Name: "serve_set", Work: serveWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			reqBuf, n, cmd, err := st.recvCommand(ctx)
			if err != nil {
				return core.Ret{}, err
			}
			if n == 0 || cmd != "SET" {
				st.misses++
				return core.Ret{}, nil
			}
			key, val, err := st.parseKeyValue(ctx, reqBuf, n)
			if err != nil {
				return core.Ret{}, err
			}

			// Dict insert: overwrite in place, or allocate a fresh private
			// value slot.
			ctx.Charge(lookupWork + storeWork)
			addr, ok := st.values[string(key)]
			if !ok {
				if addr, err = ctx.AllocPrivate(valueSize); err != nil {
					return core.Ret{}, err
				}
				st.values[string(key)] = addr
			}
			clear(st.val[:])
			copy(st.val[:], val)
			if err := ctx.Write(addr, st.val[:]); err != nil {
				return core.Ret{}, err
			}
			st.sets++

			if err := st.sendReply(ctx, okReply); err != nil {
				return core.Ret{}, err
			}
			if err := eventLoopChatter(ctx); err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: 1}, nil
		},
	})
	return c
}()

// readRequest reads a received request back from simulated memory into
// the state's scratch; the result is valid until the next request.
func (st *State) readRequest(ctx *core.Ctx, buf uintptr, n int) ([]byte, error) {
	st.req = slices.Grow(st.req[:0], n)[:n]
	return st.req, ctx.Read(buf, st.req)
}

// parseKey extracts the key token after "GET ".
func (st *State) parseKey(ctx *core.Ctx, buf uintptr, n int) ([]byte, error) {
	raw, err := st.readRequest(ctx, buf, n)
	if err != nil {
		return nil, err
	}
	const prefix = "GET "
	if len(raw) <= len(prefix) {
		return nil, fmt.Errorf("redis: malformed request %q", raw)
	}
	return cutLine(raw[len(prefix):]), nil
}

// parseKeyValue extracts the key and value tokens after "SET ".
func (st *State) parseKeyValue(ctx *core.Ctx, buf uintptr, n int) (key, val []byte, err error) {
	raw, err := st.readRequest(ctx, buf, n)
	if err != nil {
		return nil, nil, err
	}
	const prefix = "SET "
	if len(raw) <= len(prefix) {
		return nil, nil, fmt.Errorf("redis: malformed request %q", raw)
	}
	key, val, _ = bytes.Cut(cutLine(raw[len(prefix):]), []byte(" "))
	if len(key) == 0 {
		return nil, nil, fmt.Errorf("redis: malformed SET %q", raw)
	}
	return key, val, nil
}

// cutLine returns b up to its first CR or LF.
func cutLine(b []byte) []byte {
	if i := bytes.IndexAny(b, "\r\n"); i >= 0 {
		return b[:i]
	}
	return b
}

// AppendPadded appends v in decimal, zero-padded to width digits: the
// spelling of the preloaded values and of the scenarios' SET values.
func AppendPadded(b []byte, v, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(v), 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// recvCommand runs the shared request prologue: allocate the DSS
// request buffer, receive into it, and parse the command token. A
// (0, 0, "", nil) return means the rx queue was empty.
func (st *State) recvCommand(ctx *core.Ctx) (buf uintptr, n int, cmd string, err error) {
	// Shared request buffer on the stack: a DSS shadow slot under the
	// default sharing strategy (Fig. 4).
	buf, err = ctx.StackAlloc(64, true)
	if err != nil {
		return 0, 0, "", err
	}
	v, err := ctx.Call(symRecv, core.Words(uint64(st.sock), uint64(buf), 64))
	if err != nil {
		return 0, 0, "", err
	}
	n = v.Int()
	if n == 0 {
		return buf, 0, "", nil
	}
	tok, err := ctx.Call(symParse, core.Words(uint64(buf), uint64(n)))
	if err != nil {
		return 0, 0, "", err
	}
	return buf, n, tok.S, nil
}

// sendReply formats a reply into a fresh shared buffer and transmits
// it — the epilogue both command paths share.
func (st *State) sendReply(ctx *core.Ctx, reply []byte) error {
	repBuf, err := ctx.StackAlloc(64, true)
	if err != nil {
		return err
	}
	fa := core.Words(uint64(repBuf))
	fa.B = reply
	nv, err := ctx.Call(symFormat, fa)
	if err != nil {
		return err
	}
	_, err = ctx.Call(symSend, core.Words(uint64(st.sock), uint64(repBuf), nv.W))
	return err
}

// eventLoopChatter is the per-request scheduler bookkeeping that makes
// isolating uksched expensive for Redis (~10 calls per request),
// identical on the GET and SET paths.
func eventLoopChatter(ctx *core.Ctx) error {
	for i := 0; i < schedCallsPerReq; i++ {
		if _, err := ctx.Call(symChatter[i%3], core.Args{}); err != nil {
			return err
		}
	}
	return nil
}

// Sets returns the number of successful SETs (test hook).
func (st *State) Sets() uint64 { return st.sets }

// Hits returns the number of successful GETs (test hook).
func (st *State) Hits() uint64 { return st.hits }

// Misses returns the number of failed GETs (test hook).
func (st *State) Misses() uint64 { return st.misses }
