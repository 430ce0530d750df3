// Package netstack implements the LwIP analogue: FlexOS-Go's TCP/IP
// stack component. Table 1 reports it as the largest porting effort
// (+542/-275 lines, 23 shared variables, 2-5 days); Figures 6 and 9
// isolate it under the name "lwip".
//
// The stack is functional at the data-plane level: packets are byte
// buffers in the component's private heap, receive copies them into
// caller-provided buffers through checked simulated-memory operations
// (so a caller passing a private buffer across a compartment boundary
// faults, which is exactly the porting crash-loop of §4.4), and
// per-byte processing cost is charged so batching effects (Fig. 9)
// emerge naturally.
package netstack

import (
	"fmt"
	"slices"
	"sync"

	"flexos/internal/core"
)

// Name is the component name used in configuration files.
const Name = "lwip"

// Cost calibration (cycles). ProcessPerByte covers checksumming and
// protocol processing; at 4 cy/B the iPerf curve saturates near the
// paper's ~4 Gb/s.
const (
	socketWork     = 80
	recvWork       = 120
	sendWork       = 110
	enqueueWork    = 90
	ProcessPerByte = 4
)

// packet is one queued datagram; Data points into the stack's private
// heap.
type packet struct {
	addr uintptr
	n    int
	// orig is the allocation base, kept so partially consumed packets
	// free the right block.
	orig uintptr
}

// socket is one simulated connection endpoint.
type socket struct {
	// rxQueue[rxHead:] holds the queued packets; the queue rewinds to
	// the start of its buffer whenever it drains.
	rxQueue []packet
	rxHead  int
	txBytes uint64
	rxDrops uint64
}

// State is the per-image network stack state ("kernel" metadata lives at
// the Go level, payloads live in simulated memory — see DESIGN.md).
// Released states are recycled: a later image's State reuses their
// sockets' queue buffers.
type State struct {
	// sockets holds descriptor i+1 at index i. Past its length it keeps
	// the sockets of the image this State last served, for reuse.
	sockets []*socket
	rxTotal uint64
	txTotal uint64
	// scratch receives the bytes send reads from the caller's buffer.
	scratch []byte
}

// states holds released States for the next image.
var states = sync.Pool{New: func() any { return new(State) }}

// free resets st and its sockets to an empty stack, keeping their
// buffers, and hands st to the next image.
func (st *State) free() {
	for _, s := range st.sockets {
		*s = socket{rxQueue: s.rxQueue[:0]}
	}
	*st = State{sockets: st.sockets[:0], scratch: st.scratch[:0]}
	states.Put(st)
}

// Register adds the lwip component to the catalog.
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is lwip, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	c.PatchAdd, c.PatchDel = 542, 275 // Table 1
	c.Imports = []string{"uksched"}
	c.Shared = append(c.Shared, sharedVars...)
	c.NewState = func() any { return states.Get() }
	c.FreeState = func(st any) { st.(*State).free() }

	// socket() creates an endpoint and returns its descriptor.
	c.AddFunc(&core.Func{
		Name: "socket", Work: socketWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			n := len(st.sockets)
			if n < cap(st.sockets) && st.sockets[:n+1][n] != nil {
				st.sockets = st.sockets[:n+1] // an earlier image's socket, reset by free
			} else {
				st.sockets = append(st.sockets, new(socket))
			}
			return core.Ret{W: uint64(n + 1)}, nil
		},
	})

	// rx_enqueue(sock; B payload) is the driver-side injection point
	// standing in for the NIC: it copies the payload into the stack's
	// private packet pool.
	c.AddFunc(&core.Func{
		Name: "rx_enqueue", Work: enqueueWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			s, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			payload := a.B
			addr, err := ctx.AllocPrivate(len(payload))
			if err != nil {
				s.rxDrops++
				return core.Ret{}, err
			}
			if err := ctx.Write(addr, payload); err != nil {
				return core.Ret{}, err
			}
			ctx.Charge(uint64(len(payload)) * ProcessPerByte)
			s.rxQueue = append(s.rxQueue, packet{addr: addr, n: len(payload), orig: addr})
			st.rxTotal += uint64(len(payload))
			return core.Ret{W: uint64(len(payload))}, nil
		},
	})

	// recv(sock, bufAddr, bufLen) copies the next packet into the
	// caller's buffer and returns the byte count (0 when the queue is
	// empty). The buffer must be accessible from the stack's domain:
	// callers in other compartments pass DSS shadows or shared-heap
	// buffers, per the __shared porting rule.
	c.AddFunc(&core.Func{
		Name: "recv", Work: recvWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			s, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			bufAddr, bufLen := uintptr(a.W[1]), int(a.W[2])
			if s.rxHead == len(s.rxQueue) {
				return core.Ret{}, nil
			}
			pkt := s.rxQueue[s.rxHead]
			n := min(pkt.n, bufLen)
			// Protocol processing + copy into the caller's buffer.
			ctx.Charge(uint64(n) * ProcessPerByte)
			if err := ctx.Memmove(bufAddr, pkt.addr, n); err != nil {
				return core.Ret{}, err
			}
			if n == pkt.n {
				if s.rxHead++; s.rxHead == len(s.rxQueue) {
					s.rxQueue, s.rxHead = s.rxQueue[:0], 0
				}
				if err := ctx.FreePrivate(pkt.orig); err != nil {
					return core.Ret{}, err
				}
			} else {
				s.rxQueue[s.rxHead] = packet{addr: pkt.addr + uintptr(n), n: pkt.n - n, orig: pkt.orig}
			}
			return core.Ret{W: uint64(n)}, nil
		},
	})

	// send(sock, bufAddr, n) transmits n bytes from the caller's buffer.
	c.AddFunc(&core.Func{
		Name: "send", Work: sendWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			s, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			n := int(a.W[2])
			// The stack must be able to read the caller's buffer.
			st.scratch = slices.Grow(st.scratch[:0], n)[:n]
			if err := ctx.Read(uintptr(a.W[1]), st.scratch); err != nil {
				return core.Ret{}, err
			}
			ctx.Charge(uint64(n) * ProcessPerByte)
			s.txBytes += uint64(n)
			st.txTotal += uint64(n)
			return core.Ret{W: uint64(n)}, nil
		},
	})

	// pending(sock) reports queued packets (driver/test hook).
	c.AddFunc(&core.Func{
		Name: "pending", Work: 20, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			s, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: uint64(len(s.rxQueue) - s.rxHead)}, nil
		},
	})
	return c
}()

func (st *State) lookup(id int) (*socket, error) {
	if id < 1 || id > len(st.sockets) {
		return nil, fmt.Errorf("netstack: bad socket %d", id)
	}
	return st.sockets[id-1], nil
}

// ReserveRx makes room in socket sock's receive queue for n more
// packets. It is a host-side hint for a driver that enqueues a whole
// request stream before running: the queue grows once instead of by
// doubling, and no simulated cycle is charged.
func (st *State) ReserveRx(sock, n int) {
	if s, err := st.lookup(sock); err == nil {
		s.rxQueue = slices.Grow(s.rxQueue, n)
	}
}

// TxBytes returns the total bytes transmitted (bench hook).
func (st *State) TxBytes() uint64 { return st.txTotal }

// RxBytes returns the total bytes received into the stack (bench hook).
func (st *State) RxBytes() uint64 { return st.rxTotal }

// sharedVars reproduces the 23 shared-variable annotations Table 1
// reports for the LwIP port: packet pools, protocol control blocks and
// statistics exchanged with applications and the platform layer. It is
// computed once per process.
var sharedVars = func() []core.SharedVar {
	base := []core.SharedVar{
		{Name: "pbuf_pool", Size: 256},
		{Name: "netif_default", Size: 64},
		{Name: "tcp_active_pcbs", Size: 64},
		{Name: "tcp_ticks", Size: 8},
		{Name: "rx_ring", Size: 256},
		{Name: "tx_ring", Size: 256},
		{Name: "lwip_stats", Size: 128},
		{Name: "dns_table", Size: 128},
		{Name: "arp_table", Size: 128},
		{Name: "ip_addr", Size: 16},
		{Name: "netmask", Size: 16},
		{Name: "gateway", Size: 16},
	}
	for i := len(base); i < 23; i++ {
		base = append(base, core.SharedVar{Name: fmt.Sprintf("sock_state_%d", i), Size: 32})
	}
	return base
}()
