package libc

import (
	"fmt"
	"testing"
	"unsafe"

	"flexos/internal/core"
	"flexos/internal/harden"
	"flexos/internal/oslib"
)

var (
	symParse      = core.Symbol(Name, "parse")
	symFormat     = core.Symbol(Name, "format")
	symStrcmp     = core.Symbol(Name, "strcmp")
	symMemcpy     = core.Symbol(Name, "memcpy")
	symCheckedAdd = core.Symbol(Name, "checked_add")
)

func testImage(t *testing.T, hs harden.Set) *core.Image {
	t.Helper()
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	Register(cat)
	img, err := core.Build(cat, core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0", Libs: append(oslib.TCB(), Name),
			Hardening: hs,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestParseTokenizes(t *testing.T) {
	img := testImage(t, harden.Set{})
	ctx, _ := img.NewContext("t", Name)
	buf, err := ctx.AllocPrivate(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Write(buf, []byte("GET key7\r\n")); err != nil {
		t.Fatal(err)
	}
	tok, err := ctx.Call(symParse, core.Words(uint64(buf), 10))
	if err != nil {
		t.Fatal(err)
	}
	if tok.S != "GET" {
		t.Fatalf("parse = %q, want GET", tok.S)
	}
	// A repeated token is the interned string, not a fresh copy.
	again, err := ctx.Call(symParse, core.Words(uint64(buf), 10))
	if err != nil || unsafe.StringData(again.S) != unsafe.StringData(tok.S) {
		t.Fatalf("second parse = %q, %v: not the interned token", again.S, err)
	}
}

func TestParseInternTableIsBounded(t *testing.T) {
	img := testImage(t, harden.Set{})
	ctx, _ := img.NewContext("t", Name)
	buf, _ := ctx.AllocPrivate(16)
	for i := 0; i < 2*maxTokens; i++ {
		tok := fmt.Sprintf("T%d", i)
		ctx.Write(buf, []byte(tok+" "))
		got, err := ctx.Call(symParse, core.Words(uint64(buf), uint64(len(tok)+1)))
		if err != nil || got.S != tok {
			t.Fatalf("parse %d = %q, %v; want %q", i, got.S, err, tok)
		}
	}
}

func TestParseWholeBufferWhenNoDelimiter(t *testing.T) {
	img := testImage(t, harden.Set{})
	ctx, _ := img.NewContext("t", Name)
	buf, _ := ctx.AllocPrivate(8)
	ctx.Write(buf, []byte("PING"))
	tok, err := ctx.Call(symParse, core.Words(uint64(buf), 4))
	if err != nil {
		t.Fatal(err)
	}
	if tok.S != "PING" {
		t.Fatalf("parse = %q", tok.S)
	}
}

func TestFormatWritesBuffer(t *testing.T) {
	img := testImage(t, harden.Set{})
	ctx, _ := img.NewContext("t", Name)
	buf, _ := ctx.AllocPrivate(32)
	a := core.Words(uint64(buf))
	a.B = []byte("+OK\r\n")
	n, err := ctx.Call(symFormat, a)
	if err != nil {
		t.Fatal(err)
	}
	if n.Int() != 5 {
		t.Fatalf("format returned %d", n.Int())
	}
	out := make([]byte, 5)
	ctx.Read(buf, out)
	if string(out) != "+OK\r\n" {
		t.Fatalf("buffer = %q", out)
	}
}

func TestStrcmp(t *testing.T) {
	img := testImage(t, harden.Set{})
	ctx, _ := img.NewContext("t", Name)
	buf, _ := ctx.AllocPrivate(8)
	ctx.Write(buf, []byte("abc"))
	a := core.Words(uint64(buf), 3)
	a.S = "abc"
	eq, err := ctx.Call(symStrcmp, a)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Bool() {
		t.Fatal("strcmp equal strings")
	}
	a.S = "abd"
	if ne, _ := ctx.Call(symStrcmp, a); ne.Bool() {
		t.Fatal("strcmp different strings")
	}
}

func TestMemcpy(t *testing.T) {
	img := testImage(t, harden.Set{})
	ctx, _ := img.NewContext("t", Name)
	src, _ := ctx.AllocPrivate(16)
	dst, _ := ctx.AllocPrivate(16)
	ctx.Write(src, []byte("0123456789abcdef"))
	if _, err := ctx.Call(symMemcpy, core.Words(uint64(dst), uint64(src), 16)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 16)
	ctx.Read(dst, out)
	if string(out) != "0123456789abcdef" {
		t.Fatalf("memcpy result = %q", out)
	}
}

func TestCheckedAddRespectsUBSan(t *testing.T) {
	const big = 1 << 62
	// Without UBSan: silent wrap.
	img := testImage(t, harden.Set{})
	ctx, _ := img.NewContext("t", Name)
	if _, err := ctx.Call(symCheckedAdd, core.Words(big, big)); err != nil {
		t.Fatalf("unhardened add trapped: %v", err)
	}
	// Negative operands travel as two's-complement words.
	neg := int64(-7)
	if sum, err := ctx.Call(symCheckedAdd, core.Words(uint64(neg), 3)); err != nil || int64(sum.W) != -4 {
		t.Fatalf("-7 + 3 = %d, %v", int64(sum.W), err)
	}
	// With UBSan: the overflow traps.
	imgU := testImage(t, harden.NewSet(harden.UBSan))
	ctxU, _ := imgU.NewContext("t", Name)
	if _, err := ctxU.Call(symCheckedAdd, core.Words(big, big)); err == nil {
		t.Fatal("ubsan-hardened add did not trap")
	}
}

// TestBadArguments passes argument values the callee cannot honour:
// addresses outside simulated memory fault instead of being read or
// written.
func TestBadArguments(t *testing.T) {
	img := testImage(t, harden.Set{})
	ctx, _ := img.NewContext("t", Name)
	const wild = 1 << 31 // past simulated memory, and a valid uintptr on 32-bit hosts
	if _, err := ctx.Call(symParse, core.Words(wild, 3)); err == nil {
		t.Fatal("parse of an unmapped address accepted")
	}
	a := core.Words(wild)
	a.B = []byte("x")
	if _, err := ctx.Call(symFormat, a); err == nil {
		t.Fatal("format into an unmapped address accepted")
	}
	if _, err := ctx.Call(symMemcpy, core.Words(wild, wild, 8)); err == nil {
		t.Fatal("memcpy between unmapped addresses accepted")
	}
}
