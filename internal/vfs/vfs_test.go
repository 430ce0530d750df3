package vfs

import (
	"testing"

	"flexos/internal/core"
	"flexos/internal/oslib"
	"flexos/internal/ramfs"
	"flexos/internal/timesys"
)

func testImage(t *testing.T) (*core.Image, *State, *timesys.State) {
	t.Helper()
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	timesys.Register(cat)
	ramfs.Register(cat)
	Register(cat)
	img, err := core.Build(cat, core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0",
			Libs: append(oslib.TCB(), timesys.Name, ramfs.Name, Name),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, img.State(Name).(*State), img.State(timesys.Name).(*timesys.State)
}

func TestOpenWriteReadRoundTrip(t *testing.T) {
	img, _, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	v, err := ctx.Call(core.Symbol(Name, "open"), core.Args{S: "/etc/motd"})
	if err != nil {
		t.Fatal(err)
	}
	fd := v.Int()
	buf, _ := ctx.AllocPrivate(16)
	ctx.Write(buf, []byte("welcome to flex!"))
	n, err := ctx.Call(core.Symbol(Name, "write"), core.Words(uint64(fd), uint64(buf), 16))
	if err != nil || n.Int() != 16 {
		t.Fatalf("write = %d, %v", n.Int(), err)
	}
	// Reopen and read back.
	v2, _ := ctx.Call(core.Symbol(Name, "open"), core.Args{S: "/etc/motd"})
	out, _ := ctx.AllocPrivate(16)
	n, err = ctx.Call(core.Symbol(Name, "read"), core.Words(v2.W, uint64(out), 16))
	if err != nil || n.Int() != 16 {
		t.Fatalf("read = %d, %v", n.Int(), err)
	}
	raw := make([]byte, 16)
	ctx.Read(out, raw)
	if string(raw) != "welcome to flex!" {
		t.Fatalf("content = %q", raw)
	}
}

func TestCursorAdvancesAndSeek(t *testing.T) {
	img, _, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	v, _ := ctx.Call(core.Symbol(Name, "open"), core.Args{S: "/f"})
	fd := v.Int()
	buf, _ := ctx.AllocPrivate(4)
	ctx.Write(buf, []byte("abcd"))
	ctx.Call(core.Symbol(Name, "write"), core.Words(uint64(fd), uint64(buf), 4))
	ctx.Call(core.Symbol(Name, "write"), core.Words(uint64(fd), uint64(buf), 4)) // appends at cursor
	if sz, _ := ctx.Call(core.Symbol(Name, "size"), core.Args{S: "/f"}); sz.Int() != 8 {
		t.Fatalf("size = %d, want 8", sz.Int())
	}
	if _, err := ctx.Call(core.Symbol(Name, "seek"), core.Words(uint64(fd), 0)); err != nil {
		t.Fatal(err)
	}
	ctx.Call(core.Symbol(Name, "write"), core.Words(uint64(fd), uint64(buf), 4)) // overwrite at 0
	if sz, _ := ctx.Call(core.Symbol(Name, "size"), core.Args{S: "/f"}); sz.Int() != 8 {
		t.Fatalf("size after overwrite = %d, want 8", sz.Int())
	}
}

func TestEveryOpTimestamps(t *testing.T) {
	// §6.4 structure: vfs operations hit the time subsystem, which is
	// why isolating uktime matters in the MPK3 scenario.
	img, _, tst := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	before := tst.Ticks()
	v, _ := ctx.Call(core.Symbol(Name, "open"), core.Args{S: "/f"})
	buf, _ := ctx.AllocPrivate(4)
	ctx.Call(core.Symbol(Name, "write"), core.Words(v.W, uint64(buf), 4))
	ctx.Call(core.Symbol(Name, "fsync"), core.Words(v.W))
	if tst.Ticks() < before+3 {
		t.Fatalf("ticks advanced by %d, want >= 3", tst.Ticks()-before)
	}
}

func TestUnlinkRemovesFile(t *testing.T) {
	img, _, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	ctx.Call(core.Symbol(Name, "open"), core.Args{S: "/gone"})
	if _, err := ctx.Call(core.Symbol(Name, "unlink"), core.Args{S: "/gone"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call(core.Symbol(Name, "size"), core.Args{S: "/gone"}); err == nil {
		t.Fatal("unlinked file still visible")
	}
	if _, err := ctx.Call(core.Symbol(Name, "unlink"), core.Args{S: "/gone"}); err == nil {
		t.Fatal("double unlink accepted")
	}
}

func TestCloseInvalidatesFD(t *testing.T) {
	img, _, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	v, _ := ctx.Call(core.Symbol(Name, "open"), core.Args{S: "/f"})
	fd := v.Int()
	if _, err := ctx.Call(core.Symbol(Name, "close"), core.Words(uint64(fd))); err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.AllocPrivate(4)
	if _, err := ctx.Call(core.Symbol(Name, "write"), core.Words(uint64(fd), uint64(buf), 4)); err == nil {
		t.Fatal("write on closed fd accepted")
	}
}

func TestOpsCounter(t *testing.T) {
	img, st, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	before := st.Ops()
	ctx.Call(core.Symbol(Name, "open"), core.Args{S: "/f"})
	if st.Ops() != before+1 {
		t.Fatal("ops counter did not advance")
	}
}

func TestTable1Metadata(t *testing.T) {
	cat := core.NewCatalog()
	timesys.Register(cat)
	ramfs.Register(cat)
	Register(cat)
	c, _ := cat.Lookup(Name)
	if len(c.Shared) != 12 {
		t.Fatalf("vfscore shared vars = %d, want 12 (Table 1)", len(c.Shared))
	}
	if c.PatchAdd != 148 || c.PatchDel != 37 {
		t.Fatalf("vfscore patch = +%d/-%d", c.PatchAdd, c.PatchDel)
	}
}
