package netstack

import (
	"testing"

	"flexos/internal/core"
	"flexos/internal/isolation"
	"flexos/internal/mem"
	"flexos/internal/oslib"
)

func oneCompImage(t *testing.T) (*core.Image, *State) {
	t.Helper()
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	oslib.RegisterSched(cat)
	Register(cat)
	img, err := core.Build(cat, core.ImageSpec{
		Mechanism: "none",
		Comps: []core.CompSpec{{
			Name: "c0",
			Libs: append(oslib.TCB(), oslib.SchedName, Name),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, img.State(Name).(*State)
}

func splitImage(t *testing.T) (*core.Image, *State) {
	t.Helper()
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	oslib.RegisterSched(cat)
	Register(cat)
	// A tiny app component in its own compartment to drive the stack.
	app := core.NewComponent("app")
	app.AddFunc(&core.Func{Name: "main", Work: 1, EntryPoint: true})
	cat.MustRegister(app)
	img, err := core.Build(cat, core.ImageSpec{
		Mechanism: "intel-mpk",
		GateMode:  isolation.GateFull,
		Sharing:   isolation.ShareDSS,
		Comps: []core.CompSpec{
			{Name: "sys", Libs: append(oslib.TCB(), oslib.SchedName, Name)},
			{Name: "app", Libs: []string{"app"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, img.State(Name).(*State)
}

var (
	symSocket    = core.Symbol(Name, "socket")
	symRxEnqueue = core.Symbol(Name, "rx_enqueue")
	symRecv      = core.Symbol(Name, "recv")
	symSend      = core.Symbol(Name, "send")
	symPending   = core.Symbol(Name, "pending")
)

func newSocket(t *testing.T, ctx *core.Ctx) uint64 {
	t.Helper()
	v, err := ctx.Call(symSocket, core.Args{})
	if err != nil {
		t.Fatal(err)
	}
	return v.W
}

func enqueue(ctx *core.Ctx, sock uint64, payload []byte) error {
	a := core.Words(sock)
	a.B = payload
	_, err := ctx.Call(symRxEnqueue, a)
	return err
}

func recv(ctx *core.Ctx, sock uint64, buf uintptr, n int) (int, error) {
	v, err := ctx.Call(symRecv, core.Words(sock, uint64(buf), uint64(n)))
	return v.Int(), err
}

func TestSocketAndEnqueueRecv(t *testing.T) {
	img, st := oneCompImage(t)
	ctx, _ := img.NewContext("t", Name)
	sock := newSocket(t, ctx)
	if err := enqueue(ctx, sock, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if p, _ := ctx.Call(symPending, core.Words(sock)); p.Int() != 1 {
		t.Fatalf("pending = %d", p.Int())
	}
	buf, _ := ctx.AllocPrivate(16)
	n, err := recv(ctx, sock, buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("recv = %d bytes", n)
	}
	out := make([]byte, 5)
	ctx.Read(buf, out)
	if string(out) != "hello" {
		t.Fatalf("payload = %q", out)
	}
	if st.RxBytes() != 5 {
		t.Fatalf("rx bytes = %d", st.RxBytes())
	}
}

func TestRecvEmptyQueueReturnsZero(t *testing.T) {
	img, _ := oneCompImage(t)
	ctx, _ := img.NewContext("t", Name)
	sock := newSocket(t, ctx)
	buf, _ := ctx.AllocPrivate(16)
	n, err := recv(ctx, sock, buf, 16)
	if err != nil || n != 0 {
		t.Fatalf("recv on empty queue = %d, %v", n, err)
	}
}

func TestPartialRecvKeepsRemainder(t *testing.T) {
	img, _ := oneCompImage(t)
	ctx, _ := img.NewContext("t", Name)
	sock := newSocket(t, ctx)
	enqueue(ctx, sock, []byte("abcdefgh"))
	buf, _ := ctx.AllocPrivate(4)
	n, err := recv(ctx, sock, buf, 4)
	if err != nil || n != 4 {
		t.Fatalf("first recv = %d, %v", n, err)
	}
	n, err = recv(ctx, sock, buf, 4)
	if err != nil || n != 4 {
		t.Fatalf("second recv = %d, %v", n, err)
	}
	out := make([]byte, 4)
	ctx.Read(buf, out)
	if string(out) != "efgh" {
		t.Fatalf("second chunk = %q", out)
	}
}

func TestSendChargesAndCounts(t *testing.T) {
	img, st := oneCompImage(t)
	ctx, _ := img.NewContext("t", Name)
	sock := newSocket(t, ctx)
	buf, _ := ctx.AllocPrivate(64)
	ctx.Write(buf, make([]byte, 64))
	cost := img.Mach.Clock.Span(func() {
		if _, err := ctx.Call(symSend, core.Words(sock, uint64(buf), 64)); err != nil {
			t.Fatal(err)
		}
	})
	if st.TxBytes() != 64 {
		t.Fatalf("tx bytes = %d", st.TxBytes())
	}
	if cost < 64*ProcessPerByte {
		t.Fatalf("send cost %d below per-byte work", cost)
	}
}

func TestBadSocket(t *testing.T) {
	img, _ := oneCompImage(t)
	ctx, _ := img.NewContext("t", Name)
	if _, err := recv(ctx, 999, 0, 4); err == nil || err.Error() != "netstack: bad socket 999" {
		t.Fatalf("recv on a bad socket: %v", err)
	}
	if err := enqueue(ctx, 7, []byte("y")); err == nil {
		t.Fatal("enqueue on a bad socket accepted")
	}
	if _, err := ctx.Call(symSend, core.Words(999, 0, 4)); err == nil {
		t.Fatal("send on a bad socket accepted")
	}
}

func TestCrossCompartmentRecvNeedsSharedBuffer(t *testing.T) {
	// The porting rule of §4.4: a private buffer passed across the
	// compartment boundary crashes with a protection fault; annotating
	// it (shared buffer) fixes it.
	img, _ := splitImage(t)
	ctx, err := img.NewContext("t", "app")
	if err != nil {
		t.Fatal(err)
	}
	sock := newSocket(t, ctx)
	if err := enqueue(ctx, sock, []byte("data")); err != nil {
		t.Fatal(err)
	}

	// Private app-heap buffer: the stack cannot write into it.
	private, err := ctx.AllocPrivate(16)
	if err != nil {
		t.Fatal(err)
	}
	_, err = recv(ctx, sock, private, 16)
	if !mem.IsFault(err, mem.FaultKeyViolation) {
		t.Fatalf("recv into private buffer: got %v, want key violation", err)
	}

	// Re-enqueue (the failed recv consumed nothing) and use a shared
	// buffer: works.
	shared, err := ctx.AllocShared(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := recv(ctx, sock, shared, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("recv = %d", n)
	}
}

func TestTable1SharedVars(t *testing.T) {
	cat := core.NewCatalog()
	Register(cat)
	c, _ := cat.Lookup(Name)
	if len(c.Shared) != 23 {
		t.Fatalf("lwip shared vars = %d, want 23 (Table 1)", len(c.Shared))
	}
	if c.PatchAdd != 542 || c.PatchDel != 275 {
		t.Fatalf("lwip patch = +%d/-%d", c.PatchAdd, c.PatchDel)
	}
}

// TestQueueRewindsAndReleasedStateStartsEmpty: a queue that drains
// rewinds to the start of its buffer and keeps serving in order, and a
// state released with sockets and queued packets comes back, to the
// next image, with neither.
func TestQueueRewindsAndReleasedStateStartsEmpty(t *testing.T) {
	img, st := oneCompImage(t)
	ctx, _ := img.NewContext("t", Name)
	a, b := newSocket(t, ctx), newSocket(t, ctx)
	buf, _ := ctx.AllocPrivate(16)
	for _, payload := range []string{"one", "two", "three"} {
		if err := enqueue(ctx, a, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, len(payload))
		if n, err := recv(ctx, a, buf, 16); err != nil || n != len(payload) {
			t.Fatalf("recv %q = %d, %v", payload, n, err)
		}
		ctx.Read(buf, out)
		if string(out) != payload {
			t.Fatalf("recv %q read %q", payload, out)
		}
	}
	if s := st.sockets[a-1]; s.rxHead != 0 || len(s.rxQueue) != 0 {
		t.Fatalf("drained queue at head %d, length %d", s.rxHead, len(s.rxQueue))
	}
	enqueue(ctx, b, []byte("left behind"))
	img.Release()

	img, st = oneCompImage(t)
	ctx, _ = img.NewContext("t", Name)
	if st.RxBytes() != 0 || len(st.sockets) != 0 {
		t.Fatalf("fresh state: %d rx bytes, %d sockets", st.RxBytes(), len(st.sockets))
	}
	for want := uint64(1); want <= 2; want++ {
		sock := newSocket(t, ctx)
		if sock != want {
			t.Fatalf("socket %d, want %d", sock, want)
		}
		if p, _ := ctx.Call(symPending, core.Words(sock)); p.Int() != 0 {
			t.Fatalf("socket %d holds %d packets of a released image", sock, p.Int())
		}
	}
}
