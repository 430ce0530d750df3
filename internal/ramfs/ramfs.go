// Package ramfs implements the in-memory filesystem node store — the
// Unikraft ramfs analogue. Table 1 ports it together with vfscore
// (+148/-37, 12 shared variables between them), and §4.4 uses the pair as
// the canonical example of entangled components that should be isolated
// *together*: ramfs node state is reached directly by vfscore on every
// operation, so splitting them would either fault or force most of the
// state into the shared domain.
//
// File contents live in the component's private simulated heap, so any
// access from a foreign compartment that has not gone through a gate
// faults — which is how the test suite demonstrates the entanglement.
package ramfs

import (
	"fmt"

	"flexos/internal/core"
)

// Name is the component name used in configuration files.
const Name = "ramfs"

// Per-op base costs (cycles).
const (
	nodeWork  = 20
	growQuant = 512
)

// node is one file's metadata; content bytes live in simulated memory.
type node struct {
	id    int
	size  int
	cap   int
	addr  uintptr
	mtime uint64
}

// State is the per-image ramfs state.
type State struct {
	nodes  map[int]*node
	nextID int
}

// Register adds the ramfs component to the catalog.
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is ramfs, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	// Table 1 groups ramfs with vfscore; patch metadata lives on vfscore.
	c.NewState = func() any { return &State{nodes: make(map[int]*node)} }

	// create() allocates a node and returns its id.
	c.AddFunc(&core.Func{
		Name: "create", Work: nodeWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			st.nextID++
			n := &node{id: st.nextID}
			st.nodes[n.id] = n
			return core.Ret{W: uint64(n.id)}, nil
		},
	})

	// write_node(id, off, srcAddr, n, mtime) copies caller bytes into
	// the node, growing its private buffer as needed.
	c.AddFunc(&core.Func{
		Name: "write_node", Work: nodeWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			n, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			off, src, cnt, mtime := int(a.W[1]), uintptr(a.W[2]), int(a.W[3]), a.W[4]
			if err := st.ensure(ctx, n, off+cnt); err != nil {
				return core.Ret{}, err
			}
			if err := ctx.Memmove(n.addr+uintptr(off), src, cnt); err != nil {
				return core.Ret{}, err
			}
			if off+cnt > n.size {
				n.size = off + cnt
			}
			n.mtime = mtime
			return core.Ret{W: uint64(cnt)}, nil
		},
	})

	// read_node(id, off, dstAddr, n) copies node bytes out.
	c.AddFunc(&core.Func{
		Name: "read_node", Work: nodeWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			n, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			off, dst, cnt := int(a.W[1]), uintptr(a.W[2]), int(a.W[3])
			if off >= n.size {
				return core.Ret{}, nil
			}
			if off+cnt > n.size {
				cnt = n.size - off
			}
			if err := ctx.Memmove(dst, n.addr+uintptr(off), cnt); err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: uint64(cnt)}, nil
		},
	})

	// truncate(id) drops the node's content.
	c.AddFunc(&core.Func{
		Name: "truncate", Work: nodeWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			n, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			n.size = 0
			return core.Ret{}, nil
		},
	})

	// remove(id) deletes the node and frees its buffer.
	c.AddFunc(&core.Func{
		Name: "remove", Work: nodeWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			n, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			if n.addr != 0 {
				if err := ctx.FreePrivate(n.addr); err != nil {
					return core.Ret{}, err
				}
			}
			delete(st.nodes, n.id)
			return core.Ret{}, nil
		},
	})

	// node_size(id) returns the current size.
	c.AddFunc(&core.Func{
		Name: "node_size", Work: 12, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			n, err := st.lookup(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: uint64(n.size)}, nil
		},
	})
	return c
}()

func (st *State) lookup(id int) (*node, error) {
	n, ok := st.nodes[id]
	if !ok {
		return nil, fmt.Errorf("ramfs: no node %d", id)
	}
	return n, nil
}

// ensure grows a node's private buffer to at least want bytes.
func (st *State) ensure(ctx *core.Ctx, n *node, want int) error {
	if want <= n.cap {
		return nil
	}
	newCap := n.cap
	if newCap == 0 {
		newCap = growQuant
	}
	for newCap < want {
		newCap *= 2
	}
	addr, err := ctx.AllocPrivate(newCap)
	if err != nil {
		return err
	}
	if n.addr != 0 {
		if err := ctx.Memmove(addr, n.addr, n.size); err != nil {
			return err
		}
		if err := ctx.FreePrivate(n.addr); err != nil {
			return err
		}
	}
	n.addr, n.cap = addr, newCap
	return nil
}

// Nodes returns the live node count (test hook).
func (st *State) Nodes() int { return len(st.nodes) }
