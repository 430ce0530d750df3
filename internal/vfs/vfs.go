// Package vfs implements the vfscore analogue: FlexOS-Go's virtual
// filesystem switch. It owns the path namespace and file descriptors and
// delegates node storage to ramfs — the entangled pair §4.4 isolates
// together (Table 1: +148/-37 lines, 12 shared variables for the two).
//
// Every operation timestamps through the uktime component, which is why
// the paper's SQLite MPK3 scenario (filesystem / time subsystem / rest)
// pays gates on both edges of the hot path.
package vfs

import (
	"fmt"

	"flexos/internal/core"
	"flexos/internal/ramfs"
	"flexos/internal/timesys"
)

// Name is the component name used in configuration files.
const Name = "vfscore"

// Per-op base costs (cycles).
const (
	lookupWork = 28
	fdWork     = 22
	syncWork   = 45
)

// The calls vfscore makes into ramfs and uktime.
var (
	symNow       = core.Symbol(timesys.Name, "now")
	symCreate    = core.Symbol(ramfs.Name, "create")
	symWriteNode = core.Symbol(ramfs.Name, "write_node")
	symReadNode  = core.Symbol(ramfs.Name, "read_node")
	symRemove    = core.Symbol(ramfs.Name, "remove")
	symNodeSize  = core.Symbol(ramfs.Name, "node_size")
)

// file is an open descriptor.
type file struct {
	fd     int
	nodeID int
	pos    int
}

// State is the per-image VFS state.
type State struct {
	paths  map[string]int // path -> ramfs node id
	files  map[int]*file
	nextFD int
	ops    uint64
}

// Register adds the vfscore component. It requires ramfs and uktime to be
// registered in the same catalog.
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is vfscore, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	c.PatchAdd, c.PatchDel = 148, 37 // Table 1 (vfscore+ramfs)
	c.Imports = []string{ramfs.Name, timesys.Name}
	c.NewState = func() any { return &State{paths: make(map[string]int), files: make(map[int]*file)} }
	c.Shared = []core.SharedVar{
		{Name: "fd_table", Size: 256},
		{Name: "mount_table", Size: 128},
		{Name: "cwd", Size: 64},
		{Name: "vfs_stats", Size: 64},
		{Name: "dirent_buf", Size: 256},
		{Name: "path_scratch", Size: 128},
		{Name: "open_flags", Size: 8},
		{Name: "umask", Size: 8},
		{Name: "root_vnode", Size: 32},
		{Name: "io_vec", Size: 64},
		{Name: "lock_table", Size: 64},
		{Name: "statfs_buf", Size: 64},
	}

	now := func(ctx *core.Ctx) (uint64, error) {
		v, err := ctx.Call(symNow, core.Args{})
		return v.W, err
	}

	// open(S path) creates the file if needed and returns an fd.
	c.AddFunc(&core.Func{
		Name: "open", Work: lookupWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			if _, err := now(ctx); err != nil {
				return core.Ret{}, err
			}
			nodeID, ok := st.paths[a.S]
			if !ok {
				v, err := ctx.Call(symCreate, core.Args{})
				if err != nil {
					return core.Ret{}, err
				}
				nodeID = v.Int()
				st.paths[a.S] = nodeID
			}
			st.nextFD++
			st.files[st.nextFD] = &file{fd: st.nextFD, nodeID: nodeID}
			st.ops++
			return core.Ret{W: uint64(st.nextFD)}, nil
		},
	})

	// write(fd, srcAddr, n) appends at the cursor.
	c.AddFunc(&core.Func{
		Name: "write", Work: fdWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			f, err := st.file(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			t, err := now(ctx)
			if err != nil {
				return core.Ret{}, err
			}
			v, err := ctx.Call(symWriteNode, core.Words(uint64(f.nodeID), uint64(f.pos), a.W[1], a.W[2], t))
			if err != nil {
				return core.Ret{}, err
			}
			f.pos += v.Int()
			st.ops++
			return v, nil
		},
	})

	// read(fd, dstAddr, n) reads from the cursor.
	c.AddFunc(&core.Func{
		Name: "read", Work: fdWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			f, err := st.file(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			if _, err := now(ctx); err != nil {
				return core.Ret{}, err
			}
			v, err := ctx.Call(symReadNode, core.Words(uint64(f.nodeID), uint64(f.pos), a.W[1], a.W[2]))
			if err != nil {
				return core.Ret{}, err
			}
			f.pos += v.Int()
			st.ops++
			return v, nil
		},
	})

	// seek(fd, pos) repositions the cursor.
	c.AddFunc(&core.Func{
		Name: "seek", Work: 14, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			f, err := st.file(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			f.pos = int(a.W[1])
			return core.Ret{W: uint64(f.pos)}, nil
		},
	})

	// fsync(fd) flushes (a ramfs no-op with sync bookkeeping cost).
	c.AddFunc(&core.Func{
		Name: "fsync", Work: syncWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			if _, err := st.file(int(a.W[0])); err != nil {
				return core.Ret{}, err
			}
			if _, err := now(ctx); err != nil {
				return core.Ret{}, err
			}
			st.ops++
			return core.Ret{}, nil
		},
	})

	// close(fd) drops the descriptor.
	c.AddFunc(&core.Func{
		Name: "close", Work: fdWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			f, err := st.file(int(a.W[0]))
			if err != nil {
				return core.Ret{}, err
			}
			delete(st.files, f.fd)
			st.ops++
			return core.Ret{}, nil
		},
	})

	// unlink(S path) removes a file entirely.
	c.AddFunc(&core.Func{
		Name: "unlink", Work: lookupWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			nodeID, ok := st.paths[a.S]
			if !ok {
				return core.Ret{}, fmt.Errorf("vfs: unlink %q: no such file", a.S)
			}
			if _, err := now(ctx); err != nil {
				return core.Ret{}, err
			}
			if _, err := ctx.Call(symRemove, core.Words(uint64(nodeID))); err != nil {
				return core.Ret{}, err
			}
			delete(st.paths, a.S)
			st.ops++
			return core.Ret{}, nil
		},
	})

	// size(S path) returns the file size.
	c.AddFunc(&core.Func{
		Name: "size", Work: lookupWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			nodeID, ok := st.paths[a.S]
			if !ok {
				return core.Ret{}, fmt.Errorf("vfs: size %q: no such file", a.S)
			}
			return ctx.Call(symNodeSize, core.Words(uint64(nodeID)))
		},
	})
	return c
}()

func (st *State) file(fd int) (*file, error) {
	f, ok := st.files[fd]
	if !ok {
		return nil, fmt.Errorf("vfs: bad fd %d", fd)
	}
	return f, nil
}

// Ops returns the number of VFS operations performed (bench hook).
func (st *State) Ops() uint64 { return st.ops }
