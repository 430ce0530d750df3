package ramfs

import (
	"testing"

	"flexos/internal/core"
	"flexos/internal/oslib"
)

func testImage(t *testing.T) (*core.Image, *State) {
	t.Helper()
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	Register(cat)
	img, err := core.Build(cat, core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0", Libs: append(oslib.TCB(), Name),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, img.State(Name).(*State)
}

func TestCreateWriteRead(t *testing.T) {
	img, st := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	v, err := ctx.Call(core.Symbol(Name, "create"), core.Args{})
	if err != nil {
		t.Fatal(err)
	}
	id := v.Int()
	src, _ := ctx.AllocPrivate(16)
	ctx.Write(src, []byte("filesystem data!"))
	if _, err := ctx.Call(core.Symbol(Name, "write_node"), core.Words(uint64(id), 0, uint64(src), 16, 1)); err != nil {
		t.Fatal(err)
	}
	if sz, _ := ctx.Call(core.Symbol(Name, "node_size"), core.Words(uint64(id))); sz.Int() != 16 {
		t.Fatalf("size = %d", sz.Int())
	}
	dst, _ := ctx.AllocPrivate(16)
	n, err := ctx.Call(core.Symbol(Name, "read_node"), core.Words(uint64(id), 0, uint64(dst), 16))
	if err != nil || n.Int() != 16 {
		t.Fatalf("read = %d, %v", n.Int(), err)
	}
	out := make([]byte, 16)
	ctx.Read(dst, out)
	if string(out) != "filesystem data!" {
		t.Fatalf("content = %q", out)
	}
	if st.Nodes() != 1 {
		t.Fatalf("nodes = %d", st.Nodes())
	}
}

func TestWriteGrowsBuffer(t *testing.T) {
	img, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	v, _ := ctx.Call(core.Symbol(Name, "create"), core.Args{})
	id := v.Int()
	src, _ := ctx.AllocPrivate(64)
	// Write well past the initial 512-byte quantum.
	for off := 0; off < 4096; off += 64 {
		if _, err := ctx.Call(core.Symbol(Name, "write_node"), core.Words(uint64(id), uint64(off), uint64(src), 64, uint64(off))); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if sz, _ := ctx.Call(core.Symbol(Name, "node_size"), core.Words(uint64(id))); sz.Int() != 4096 {
		t.Fatalf("size = %d, want 4096", sz.Int())
	}
}

func TestReadPastEOF(t *testing.T) {
	img, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	v, _ := ctx.Call(core.Symbol(Name, "create"), core.Args{})
	id := v.Int()
	dst, _ := ctx.AllocPrivate(8)
	n, err := ctx.Call(core.Symbol(Name, "read_node"), core.Words(uint64(id), 100, uint64(dst), 8))
	if err != nil || n.Int() != 0 {
		t.Fatalf("read past EOF = %d, %v", n.Int(), err)
	}
}

func TestTruncateAndRemove(t *testing.T) {
	img, st := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	v, _ := ctx.Call(core.Symbol(Name, "create"), core.Args{})
	id := v.Int()
	src, _ := ctx.AllocPrivate(8)
	ctx.Call(core.Symbol(Name, "write_node"), core.Words(uint64(id), 0, uint64(src), 8, 1))
	if _, err := ctx.Call(core.Symbol(Name, "truncate"), core.Words(uint64(id))); err != nil {
		t.Fatal(err)
	}
	if sz, _ := ctx.Call(core.Symbol(Name, "node_size"), core.Words(uint64(id))); sz.Int() != 0 {
		t.Fatalf("size after truncate = %d", sz.Int())
	}
	if _, err := ctx.Call(core.Symbol(Name, "remove"), core.Words(uint64(id))); err != nil {
		t.Fatal(err)
	}
	if st.Nodes() != 0 {
		t.Fatal("node survived remove")
	}
	if _, err := ctx.Call(core.Symbol(Name, "node_size"), core.Words(uint64(id))); err == nil {
		t.Fatal("removed node still accessible")
	}
}

func TestBadNodeID(t *testing.T) {
	img, _ := testImage(t)
	ctx, _ := img.NewContext("t", Name)
	if _, err := ctx.Call(core.Symbol(Name, "node_size"), core.Words(42)); err == nil {
		t.Fatal("bad node id accepted")
	}
	if _, err := ctx.Call(core.Symbol(Name, "write_node"), core.Words(7, 0, 0, 1, 0)); err == nil || err.Error() != "ramfs: no node 7" {
		t.Fatalf("write to a bad node id: %v", err)
	}
}
