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

// State is the per-image engine state.
type State struct {
	rows   uint64
	dbFD   int
	opened bool
}

// Register adds libsqlite to a catalog (Table 1: +199/-145, 24 shared
// variables).
func Register(cat *core.Catalog) *State {
	st := &State{}
	c := core.NewComponent(Name)
	c.PatchAdd, c.PatchDel = 199, 145
	c.Imports = []string{libc.Name, vfs.Name, timesys.Name}
	for i := 0; i < 24; i++ {
		c.AddShared(core.SharedVar{Name: fmt.Sprintf("pager_buf_%d", i), Size: 64})
	}

	// open_db() opens the database file.
	c.AddFunc(&core.Func{
		Name: "open_db", Work: 900, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			v, err := ctx.Call(vfs.Name, "open", "/test.db")
			if err != nil {
				return nil, err
			}
			st.dbFD = v.(int)
			st.opened = true
			return st.dbFD, nil
		},
	})

	// exec_insert(i) runs: BEGIN; INSERT INTO t VALUES(i, ...); COMMIT;
	// with a rollback journal, like the paper's benchmark where "each
	// query is in a separate transaction".
	c.AddFunc(&core.Func{
		Name: "exec_insert", Work: execWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			if !st.opened {
				return nil, fmt.Errorf("sqlite: database not open")
			}
			i, ok := args[0].(int)
			if !ok {
				return nil, fmt.Errorf("sqlite: exec_insert(i int)")
			}
			// Timestamp the transaction start.
			if _, err := ctx.Call(timesys.Name, "now"); err != nil {
				return nil, err
			}

			// Stage the SQL text and row image in a shared buffer (it
			// crosses into vfs).
			buf, err := ctx.StackAlloc(chunkSize, true)
			if err != nil {
				return nil, err
			}
			row := fmt.Sprintf("INSERT(%d)", i)
			if _, err := ctx.Call(libc.Name, "format", buf, row); err != nil {
				return nil, err
			}

			// 1. Open the rollback journal and write the page backup.
			jv, err := ctx.Call(vfs.Name, "open", "/test.db-journal")
			if err != nil {
				return nil, err
			}
			jfd := jv.(int)
			for off := 0; off < journalSize; off += chunkSize {
				if _, err := ctx.Call(vfs.Name, "write", jfd, buf, chunkSize); err != nil {
					return nil, err
				}
			}
			if _, err := ctx.Call(vfs.Name, "fsync", jfd); err != nil {
				return nil, err
			}

			// 2. Write the modified b-tree page to the database.
			if _, err := ctx.Call(vfs.Name, "seek", st.dbFD, 0); err != nil {
				return nil, err
			}
			for off := 0; off < pageSize; off += chunkSize {
				if _, err := ctx.Call(vfs.Name, "write", st.dbFD, buf, chunkSize); err != nil {
					return nil, err
				}
			}
			if _, err := ctx.Call(vfs.Name, "fsync", st.dbFD); err != nil {
				return nil, err
			}

			// 3. Commit: close and delete the journal.
			if _, err := ctx.Call(vfs.Name, "close", jfd); err != nil {
				return nil, err
			}
			if _, err := ctx.Call(vfs.Name, "unlink", "/test.db-journal"); err != nil {
				return nil, err
			}

			// Timestamp the commit.
			if _, err := ctx.Call(timesys.Name, "now"); err != nil {
				return nil, err
			}
			st.rows++
			return st.rows, nil
		},
	})
	// exec_batch(start, n) runs n INSERTs inside one transaction:
	// BEGIN; INSERT ×n; COMMIT. The rollback journal is written once per
	// transaction and the page writes amortize the fsync pair, which is
	// what makes the batched scenarios faster per query than
	// exec_insert's query-per-transaction shape.
	c.AddFunc(&core.Func{
		Name: "exec_batch", Work: 0, EntryPoint: true,
		Impl: func(ctx *core.Ctx, args ...any) (any, error) {
			if !st.opened {
				return nil, fmt.Errorf("sqlite: database not open")
			}
			if len(args) != 2 {
				return nil, fmt.Errorf("sqlite: exec_batch(start, n int)")
			}
			start, ok1 := args[0].(int)
			n, ok2 := args[1].(int)
			if !ok1 || !ok2 || n <= 0 {
				return nil, fmt.Errorf("sqlite: exec_batch(start, n int) with n > 0")
			}
			if _, err := ctx.Call(timesys.Name, "now"); err != nil {
				return nil, err
			}

			buf, err := ctx.StackAlloc(chunkSize, true)
			if err != nil {
				return nil, err
			}

			// One journal cycle guards the whole transaction.
			jv, err := ctx.Call(vfs.Name, "open", "/test.db-journal")
			if err != nil {
				return nil, err
			}
			jfd := jv.(int)
			for off := 0; off < journalSize; off += chunkSize {
				if _, err := ctx.Call(vfs.Name, "write", jfd, buf, chunkSize); err != nil {
					return nil, err
				}
			}
			if _, err := ctx.Call(vfs.Name, "fsync", jfd); err != nil {
				return nil, err
			}

			// n statement executions against the same page set.
			if _, err := ctx.Call(vfs.Name, "seek", st.dbFD, 0); err != nil {
				return nil, err
			}
			for q := 0; q < n; q++ {
				ctx.Charge(execWork)
				row := fmt.Sprintf("INSERT(%d)", start+q)
				if _, err := ctx.Call(libc.Name, "format", buf, row); err != nil {
					return nil, err
				}
				for off := 0; off < pageSize; off += chunkSize {
					if _, err := ctx.Call(vfs.Name, "write", st.dbFD, buf, chunkSize); err != nil {
						return nil, err
					}
				}
				st.rows++
			}
			if _, err := ctx.Call(vfs.Name, "fsync", st.dbFD); err != nil {
				return nil, err
			}

			// Commit once for the batch.
			if _, err := ctx.Call(vfs.Name, "close", jfd); err != nil {
				return nil, err
			}
			if _, err := ctx.Call(vfs.Name, "unlink", "/test.db-journal"); err != nil {
				return nil, err
			}
			if _, err := ctx.Call(timesys.Name, "now"); err != nil {
				return nil, err
			}
			return st.rows, nil
		},
	})
	cat.MustRegister(c)
	return st
}

// Rows returns the number of committed inserts (test hook).
func (st *State) Rows() uint64 { return st.rows }

// Catalog builds a fresh catalog with everything an SQLite image needs.
func Catalog() (*core.Catalog, *State) {
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	oslib.RegisterSched(cat)
	libc.Register(cat)
	timesys.Register(cat)
	ramfs.Register(cat)
	vfs.Register(cat)
	st := Register(cat)
	return cat, st
}

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

// Components2 returns all components plus the TCB ones, for building
// one-compartment images programmatically.
func Components2() []string {
	return append([]string{oslib.BootName, oslib.MMName}, Components...)
}
