// Package sqlite implements the SQLite miniature of §6.4: an embedded SQL
// engine executing INSERT statements, each in its own journaled
// transaction, to put pressure on the filesystem. The per-query I/O
// pattern — rollback-journal write, page write, syncs, journal unlink,
// all in small chunks — generates the dense stream of vfs and time
// crossings that makes the MPK3 (filesystem / time / rest) and EPT2
// (filesystem+time / rest) scenarios of Figure 10 expensive.
//
// The package holds only the component; the sqlite-batch* scenarios in
// internal/scenario drive it.
package sqlite

import (
	"fmt"
	"strconv"

	"flexos/internal/core"
	"flexos/internal/libc"
	"flexos/internal/oslib"
	"flexos/internal/ramfs"
	"flexos/internal/timesys"
	"flexos/internal/vfs"
)

// Name is the component name used in configuration files.
const Name = "libsqlite"

// Components lists all components an SQLite image links.
var Components = []string{Name, libc.Name, oslib.SchedName, vfs.Name, ramfs.Name, timesys.Name}

// Workload shape per INSERT query (see DESIGN.md calibration):
// chunked journal and page writes at chunkSize granularity stress the
// vfs boundary ~100 times per query, and every vfs operation timestamps
// through uktime.
const (
	execWork    = 11000 // SQL parse + codegen + btree update
	chunkSize   = 32
	journalSize = 512
	pageSize    = 2048
)

// The calls libsqlite makes.
var (
	symNow    = core.Symbol(timesys.Name, "now")
	symFormat = core.Symbol(libc.Name, "format")
	symOpen   = core.Symbol(vfs.Name, "open")
	symWrite  = core.Symbol(vfs.Name, "write")
	symFsync  = core.Symbol(vfs.Name, "fsync")
	symSeek   = core.Symbol(vfs.Name, "seek")
	symClose  = core.Symbol(vfs.Name, "close")
	symUnlink = core.Symbol(vfs.Name, "unlink")
)

// Database and journal paths.
const (
	dbPath      = "/test.db"
	journalPath = "/test.db-journal"
)

// sharedVars are libsqlite's 24 __shared pager buffers, named once per
// process.
var sharedVars = func() []core.SharedVar {
	vs := make([]core.SharedVar, 24)
	for i := range vs {
		vs[i] = core.SharedVar{Name: fmt.Sprintf("pager_buf_%d", i), Size: 64}
	}
	return vs
}()

// State is the per-image engine state.
type State struct {
	rows   uint64
	dbFD   int
	opened bool
	// row is the reused host buffer each statement's text is built in.
	row []byte
}

// Register adds libsqlite to a catalog (Table 1: +199/-145, 24 shared
// variables).
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is libsqlite, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	c.NewState = func() any { return &State{} }
	c.PatchAdd, c.PatchDel = 199, 145
	c.Imports = []string{libc.Name, vfs.Name, timesys.Name}
	c.Shared = append(c.Shared, sharedVars...)

	// open_db() opens the database file.
	c.AddFunc(&core.Func{
		Name: "open_db", Work: 900, EntryPoint: true,
		Impl: func(ctx *core.Ctx, _ *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			v, err := ctx.Call(symOpen, core.Args{S: dbPath})
			if err != nil {
				return core.Ret{}, err
			}
			st.dbFD = v.Int()
			st.opened = true
			return v, nil
		},
	})

	// exec_insert(i) runs: BEGIN; INSERT INTO t VALUES(i, ...); COMMIT;
	// with a rollback journal, like the paper's benchmark where "each
	// query is in a separate transaction".
	c.AddFunc(&core.Func{
		Name: "exec_insert", Work: execWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			if !st.opened {
				return core.Ret{}, fmt.Errorf("sqlite: database not open")
			}
			// Timestamp the transaction start.
			if _, err := ctx.Call(symNow, core.Args{}); err != nil {
				return core.Ret{}, err
			}

			// Stage the SQL text and row image in a shared buffer (it
			// crosses into vfs).
			buf, err := ctx.StackAlloc(chunkSize, true)
			if err != nil {
				return core.Ret{}, err
			}
			if err := st.formatRow(ctx, buf, int(a.W[0])); err != nil {
				return core.Ret{}, err
			}

			// 1. Open the rollback journal and write the page backup.
			jfd, err := st.writeJournal(ctx, buf)
			if err != nil {
				return core.Ret{}, err
			}

			// 2. Write the modified b-tree page to the database.
			if _, err := ctx.Call(symSeek, core.Words(uint64(st.dbFD), 0)); err != nil {
				return core.Ret{}, err
			}
			if err := st.writePage(ctx, buf); err != nil {
				return core.Ret{}, err
			}
			if _, err := ctx.Call(symFsync, core.Words(uint64(st.dbFD))); err != nil {
				return core.Ret{}, err
			}

			// 3. Commit: close and delete the journal, and timestamp
			// the commit.
			if err := commit(ctx, jfd); err != nil {
				return core.Ret{}, err
			}
			st.rows++
			return core.Ret{W: st.rows}, nil
		},
	})
	// exec_batch(start, n) runs n INSERTs inside one transaction:
	// BEGIN; INSERT ×n; COMMIT. The rollback journal is written once per
	// transaction and the page writes amortize the fsync pair, which is
	// what makes the batched scenarios faster per query than
	// exec_insert's query-per-transaction shape.
	c.AddFunc(&core.Func{
		Name: "exec_batch", Work: 0, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			if !st.opened {
				return core.Ret{}, fmt.Errorf("sqlite: database not open")
			}
			start, n := int(a.W[0]), int(a.W[1])
			if n <= 0 {
				return core.Ret{}, fmt.Errorf("sqlite: exec_batch(start, n int) with n > 0")
			}
			if _, err := ctx.Call(symNow, core.Args{}); err != nil {
				return core.Ret{}, err
			}

			buf, err := ctx.StackAlloc(chunkSize, true)
			if err != nil {
				return core.Ret{}, err
			}

			// One journal cycle guards the whole transaction.
			jfd, err := st.writeJournal(ctx, buf)
			if err != nil {
				return core.Ret{}, err
			}

			// n statement executions against the same page set.
			if _, err := ctx.Call(symSeek, core.Words(uint64(st.dbFD), 0)); err != nil {
				return core.Ret{}, err
			}
			for q := 0; q < n; q++ {
				ctx.Charge(execWork)
				if err := st.formatRow(ctx, buf, start+q); err != nil {
					return core.Ret{}, err
				}
				if err := st.writePage(ctx, buf); err != nil {
					return core.Ret{}, err
				}
				st.rows++
			}
			if _, err := ctx.Call(symFsync, core.Words(uint64(st.dbFD))); err != nil {
				return core.Ret{}, err
			}

			// Commit once for the batch.
			if err := commit(ctx, jfd); err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: st.rows}, nil
		},
	})
	return c
}()

// formatRow stages row i's statement text in the shared buffer.
func (st *State) formatRow(ctx *core.Ctx, buf uintptr, i int) error {
	st.row = append(strconv.AppendInt(append(st.row[:0], "INSERT("...), int64(i), 10), ')')
	a := core.Words(uint64(buf))
	a.B = st.row
	_, err := ctx.Call(symFormat, a)
	return err
}

// writeJournal opens the rollback journal, writes the page backup in
// chunks and syncs it; it returns the journal's descriptor.
func (st *State) writeJournal(ctx *core.Ctx, buf uintptr) (uint64, error) {
	jv, err := ctx.Call(symOpen, core.Args{S: journalPath})
	if err != nil {
		return 0, err
	}
	for off := 0; off < journalSize; off += chunkSize {
		if _, err := ctx.Call(symWrite, core.Words(jv.W, uint64(buf), chunkSize)); err != nil {
			return 0, err
		}
	}
	if _, err := ctx.Call(symFsync, core.Words(jv.W)); err != nil {
		return 0, err
	}
	return jv.W, nil
}

// writePage writes one b-tree page to the database in chunks.
func (st *State) writePage(ctx *core.Ctx, buf uintptr) error {
	for off := 0; off < pageSize; off += chunkSize {
		if _, err := ctx.Call(symWrite, core.Words(uint64(st.dbFD), uint64(buf), chunkSize)); err != nil {
			return err
		}
	}
	return nil
}

// commit closes and deletes the journal, then timestamps the commit.
func commit(ctx *core.Ctx, jfd uint64) error {
	if _, err := ctx.Call(symClose, core.Words(jfd)); err != nil {
		return err
	}
	if _, err := ctx.Call(symUnlink, core.Args{S: journalPath}); err != nil {
		return err
	}
	_, err := ctx.Call(symNow, core.Args{})
	return err
}

// Rows returns the number of committed inserts (test hook).
func (st *State) Rows() uint64 { return st.rows }

// FSOpsPerQuery reports the vfs-call count of one query (used by the
// Figure 10 baseline comparators so that every system runs the same
// workload shape).
func FSOpsPerQuery() int {
	// open + journal writes + fsync + seek + page writes + fsync +
	// close + unlink
	return 1 + journalSize/chunkSize + 1 + 1 + pageSize/chunkSize + 1 + 1 + 1
}

// TimeOpsPerQuery reports direct uktime calls per query (excluding the
// per-vfs-op timestamps, which FSOpsPerQuery implies).
func TimeOpsPerQuery() int { return 2 }
