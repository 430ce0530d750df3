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
	"fmt"

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

// State is the per-image Redis state: the keyspace dictionary. Values
// live in the compartment's private simulated heap.
type State struct {
	values map[string]uintptr
	sock   int
	hits   uint64
	misses uint64
	sets   uint64
}

// Register adds libredis to a catalog (Table 1: +279/-90, 16 shared
// variables).
func Register(cat *core.Catalog) *State {
	st := &State{values: make(map[string]uintptr)}
	c := core.NewComponent(Name)
	c.PatchAdd, c.PatchDel = 279, 90
	c.Imports = []string{libc.Name, oslib.SchedName, netstack.Name}
	for i := 0; i < 16; i++ {
		c.AddShared(core.SharedVar{Name: fmt.Sprintf("io_buf_%d", i), Size: 64})
	}

	// setup(keys int): create the listening socket and preload keys.
	c.AddFunc(&core.Func{
		Name: "setup", Work: 400, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			keys, ok := args[0].(int)
			if !ok {
				return nil, fmt.Errorf("redis: setup(keys int)")
			}
			v, err := ctx.Call(netstack.Name, "socket")
			if err != nil {
				return nil, err
			}
			st.sock = v.(int)
			for i := 0; i < keys; i++ {
				addr, err := ctx.AllocPrivate(valueSize)
				if err != nil {
					return nil, err
				}
				if err := ctx.Write(addr, []byte(fmt.Sprintf("value-%010d", i))); err != nil {
					return nil, err
				}
				st.values[fmt.Sprintf("key%d", i)] = addr
			}
			return st.sock, nil
		},
	})

	// serve_get handles one GET request end to end and returns true on a
	// hit. It is the hot path Figure 6 measures.
	c.AddFunc(&core.Func{
		Name: "serve_get", Work: serveWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			reqBuf, n, cmd, err := st.recvCommand(ctx)
			if err != nil {
				return nil, err
			}
			if n == 0 || cmd != "GET" {
				st.misses++
				return false, nil
			}
			key, err := st.parseKey(ctx, reqBuf, n)
			if err != nil {
				return nil, err
			}

			// Dictionary lookup + value fetch from the private heap.
			ctx.Charge(lookupWork)
			valAddr, ok := st.values[key]
			hit := ok
			reply := "$-1\r\n"
			if ok {
				val := make([]byte, valueSize)
				if err := ctx.Read(valAddr, val); err != nil {
					return nil, err
				}
				reply = fmt.Sprintf("$%d\r\n%s\r\n", valueSize, val)
				st.hits++
			} else {
				st.misses++
			}

			if err := st.sendReply(ctx, reply); err != nil {
				return nil, err
			}
			if err := eventLoopChatter(ctx); err != nil {
				return nil, err
			}
			return hit, nil
		},
	})
	// serve_set handles one SET request end to end: parse, store the
	// value into the compartment's private heap (reusing the slot on
	// overwrite), acknowledge. It is the write half of the GET/SET mixes
	// the multi-metric scenarios run.
	c.AddFunc(&core.Func{
		Name: "serve_set", Work: serveWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			reqBuf, n, cmd, err := st.recvCommand(ctx)
			if err != nil {
				return nil, err
			}
			if n == 0 || cmd != "SET" {
				st.misses++
				return false, nil
			}
			key, val, err := st.parseKeyValue(ctx, reqBuf, n)
			if err != nil {
				return nil, err
			}

			// Dict insert: overwrite in place, or allocate a fresh private
			// value slot.
			ctx.Charge(lookupWork + storeWork)
			addr, ok := st.values[key]
			if !ok {
				if addr, err = ctx.AllocPrivate(valueSize); err != nil {
					return nil, err
				}
				st.values[key] = addr
			}
			stored := make([]byte, valueSize)
			copy(stored, val)
			if err := ctx.Write(addr, stored); err != nil {
				return nil, err
			}
			st.sets++

			if err := st.sendReply(ctx, "+OK\r\n"); err != nil {
				return nil, err
			}
			if err := eventLoopChatter(ctx); err != nil {
				return nil, err
			}
			return true, nil
		},
	})
	cat.MustRegister(c)
	return st
}

// parseKey extracts the key token after "GET ".
func (st *State) parseKey(ctx *core.Ctx, buf uintptr, n int) (string, error) {
	raw := make([]byte, n)
	if err := ctx.Read(buf, raw); err != nil {
		return "", err
	}
	s := string(raw)
	const prefix = "GET "
	if len(s) <= len(prefix) {
		return "", fmt.Errorf("redis: malformed request %q", s)
	}
	key := s[len(prefix):]
	for i := 0; i < len(key); i++ {
		if key[i] == '\r' || key[i] == '\n' {
			key = key[:i]
			break
		}
	}
	return key, nil
}

// parseKeyValue extracts the key and value tokens after "SET ".
func (st *State) parseKeyValue(ctx *core.Ctx, buf uintptr, n int) (string, string, error) {
	raw := make([]byte, n)
	if err := ctx.Read(buf, raw); err != nil {
		return "", "", err
	}
	s := string(raw)
	const prefix = "SET "
	if len(s) <= len(prefix) {
		return "", "", fmt.Errorf("redis: malformed request %q", s)
	}
	rest := s[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '\r' || rest[i] == '\n' {
			rest = rest[:i]
			break
		}
	}
	key := rest
	val := ""
	for i := 0; i < len(rest); i++ {
		if rest[i] == ' ' {
			key, val = rest[:i], rest[i+1:]
			break
		}
	}
	if key == "" {
		return "", "", fmt.Errorf("redis: malformed SET %q", s)
	}
	return key, val, nil
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
	v, err := ctx.Call(netstack.Name, "recv", st.sock, buf, 64)
	if err != nil {
		return 0, 0, "", err
	}
	n = v.(int)
	if n == 0 {
		return buf, 0, "", nil
	}
	cmdAny, err := ctx.Call(libc.Name, "parse", buf, n)
	if err != nil {
		return 0, 0, "", err
	}
	return buf, n, cmdAny.(string), nil
}

// sendReply formats a reply into a fresh shared buffer and transmits
// it — the epilogue both command paths share.
func (st *State) sendReply(ctx *core.Ctx, reply string) error {
	repBuf, err := ctx.StackAlloc(64, true)
	if err != nil {
		return err
	}
	nv, err := ctx.Call(libc.Name, "format", repBuf, reply)
	if err != nil {
		return err
	}
	_, err = ctx.Call(netstack.Name, "send", st.sock, repBuf, nv.(int))
	return err
}

// eventLoopChatter is the per-request scheduler bookkeeping that makes
// isolating uksched expensive for Redis (~10 calls per request),
// identical on the GET and SET paths.
func eventLoopChatter(ctx *core.Ctx) error {
	for i := 0; i < schedCallsPerReq; i++ {
		fn := "wake"
		switch i % 3 {
		case 1:
			fn = "block_poll"
		case 2:
			fn = "timer_arm"
		}
		if _, err := ctx.Call(oslib.SchedName, fn); err != nil {
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

// Catalog builds a fresh catalog with everything a Redis image needs.
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
