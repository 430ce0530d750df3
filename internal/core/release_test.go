package core

import (
	"strings"
	"testing"
)

// TestReleasedImagePanicsOnUse: once an image hands its memory back,
// every way of running it panics instead of reading or writing memory
// the next image may already own, and releasing it again does nothing.
func TestReleasedImagePanicsOnUse(t *testing.T) {
	img := build(t, twoCompSpec("intel-mpk", 0, 0))
	ctx, err := img.NewContext("t", "app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call(symPing, Args{}); err != nil {
		t.Fatal(err)
	}
	img.Release()
	img.Release()
	// The next image may draw the same memory.
	if _, err := build(t, twoCompSpec("intel-mpk", 0, 0)).NewContext("t", "app"); err != nil {
		t.Fatal(err)
	}

	for name, use := range map[string]func(){
		"Call":         func() { _, _ = ctx.Call(symPing, Args{}) },
		"Read":         func() { _ = ctx.Read(0, make([]byte, 8)) },
		"Write":        func() { _ = ctx.Write(0, make([]byte, 8)) },
		"AllocPrivate": func() { _, _ = ctx.AllocPrivate(8) },
		"AllocShared":  func() { _, _ = ctx.AllocShared(8) },
		"NewContext":   func() { _, _ = img.NewContext("t2", "app") },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s on a released image did not panic", name)
				} else if s, ok := r.(string); ok && !strings.Contains(s, "released") {
					t.Errorf("%s panicked with %q", name, s)
				}
			}()
			use()
		}()
	}
}
