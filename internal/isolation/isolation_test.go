package isolation

import (
	"testing"

	"flexos/internal/machine"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// svc adapts a closure to a Callee that is a legal entry point.
type svc func() error

func (svc) EntryPoint() bool { return true }
func (svc) Symbol() string   { return "svc" }
func (f svc) Run() error     { return f() }

// rogue is a Callee that is not an entry point of its compartment.
type rogue struct{}

func (rogue) EntryPoint() bool { return false }
func (rogue) Symbol() string   { return "not_an_entry" }
func (rogue) Run() error       { return nil }

// newSys builds a System with n compartments named c0..c(n-1).
func newSys(t *testing.T, n int) *System {
	t.Helper()
	m := machine.New(machine.CostModel{})
	s := &System{
		Mach:  m,
		Sched: sched.New(m),
		AS:    mem.NewAddrSpace("sys", 256*mem.PageSize, m),
	}
	for i := 0; i < n; i++ {
		s.Comps = append(s.Comps, &Compartment{ID: sched.CompID(i), Name: "c" + string(rune('0'+i))})
	}
	return s
}

func initBackend(t *testing.T, b Backend, sys *System) {
	t.Helper()
	if err := b.Init(sys); err != nil {
		t.Fatal(err)
	}
}

// mustBackend instantiates a registered backend.
func mustBackend(t *testing.T, name string) Backend {
	t.Helper()
	b, err := ForName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// gateFlavour is one row of the gate table: a mechanism, the mode that
// selects the flavour, and what the flavour must do.
type gateFlavour struct {
	mech  string
	mode  GateMode
	label string
	cost  uint64 // Fig. 11b, under the default cost model
	scrub bool   // registers are zeroed inside and restored after
}

var gateFlavours = []gateFlavour{
	{"intel-mpk", GateFull, "mpk/full", 108, true},
	{"intel-mpk", GateLight, "mpk/light", 62, false},
	{"vm-ept", GateDefault, "ept/rpc", 462, true},
	{"cheri", GateDefault, "cheri/cinvoke", 31, true},
	{"intel-sgx", GateDefault, "sgx/ecall", 7600, true},
}

func flavourByLabel(t *testing.T, label string) gateFlavour {
	t.Helper()
	for _, f := range gateFlavours {
		if f.label == label {
			return f
		}
	}
	t.Fatalf("no gate flavour %q", label)
	return gateFlavour{}
}

// bind initializes the flavour's backend over two compartments and
// returns a thread in compartment 1 and the flavour's gate 1 -> 0.
func (f gateFlavour) bind(t *testing.T) (*System, *sched.Thread, Gate) {
	t.Helper()
	sys := newSys(t, 2)
	b := mustBackend(t, f.mech)
	initBackend(t, b, sys)
	g, err := b.Gate(1, 0, f.mode)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != f.label {
		t.Fatalf("%s %v gate = %q, want %q", f.mech, f.mode, g, f.label)
	}
	return sys, sys.Sched.Spawn("app", 1), g
}

func checkTooManyCompartments(t *testing.T, f gateFlavour) {
	if err := mustBackend(t, f.mech).Init(newSys(t, 16)); err == nil {
		t.Fatal("16 compartments must exceed the 15-key budget")
	}
}

func checkDoubleInit(t *testing.T, f gateFlavour) {
	sys := newSys(t, 2)
	b := mustBackend(t, f.mech)
	initBackend(t, b, sys)
	if err := b.Init(sys); err == nil {
		t.Fatal("double Init accepted")
	}
}

func checkRogueEntry(t *testing.T, f gateFlavour) {
	sys, th, g := f.bind(t)
	var err error
	cost := sys.Mach.Clock.Span(func() {
		err = g.Call(th, rogue{})
	})
	if f, ok := err.(*mem.Fault); !ok || f.Kind != mem.FaultCFI || f.Space != "c0:not_an_entry" {
		t.Fatalf("rogue entry: got %v, want CFI fault in c0:not_an_entry", err)
	}
	if cost != 0 {
		t.Fatalf("rejected entry charged %d cycles", cost)
	}
}

func checkCost(t *testing.T, f gateFlavour) {
	sys, th, g := f.bind(t)
	if g.Cost() != f.cost {
		t.Fatalf("gate cost = %d, want %d (Fig. 11b)", g.Cost(), f.cost)
	}
	var err error
	cost := sys.Mach.Clock.Span(func() {
		err = g.Call(th, svc(func() error { return nil }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost != g.Cost() {
		t.Fatalf("legal call charged %d cycles, want %d", cost, g.Cost())
	}
}

func checkSwitch(t *testing.T, f gateFlavour) {
	sys, th, g := f.bind(t)
	before := th.PKRU
	var inside mem.PKRU
	var insideComp sched.CompID
	err := g.Call(th, svc(func() error {
		inside, insideComp = th.PKRU, th.Comp
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if insideComp != 0 || inside != sys.Comps[0].PKRU() {
		t.Fatal("gate did not switch to the callee domain")
	}
	if th.PKRU != before || th.Comp != 1 {
		t.Fatal("gate did not restore the caller domain")
	}
}

func checkRegisters(t *testing.T, f gateFlavour) {
	_, th, g := f.bind(t)
	th.Regs[0] = 0x5EC2E7
	var seen uint64
	g.Call(th, svc(func() error {
		seen = th.Regs[0]
		th.Regs[1] = 0xCA11EE
		return nil
	}))
	if f.scrub {
		if seen != 0 {
			t.Fatalf("gate leaked register value %#x", seen)
		}
		if th.Regs[0] != 0x5EC2E7 || th.Regs[1] != 0 {
			t.Fatalf("gate must restore caller registers, got %#x", th.Regs[:2])
		}
		return
	}
	// A stack-sharing gate shares the register set by design, both ways.
	if seen != 0x5EC2E7 || th.Regs[1] != 0xCA11EE {
		t.Fatalf("shared register set: callee saw %#x, caller got back %#x", seen, th.Regs[1])
	}
}

// TestGateFlavours runs every check on every gate flavour.
func TestGateFlavours(t *testing.T) {
	checks := []struct {
		name  string
		check func(*testing.T, gateFlavour)
	}{
		{"too-many", checkTooManyCompartments},
		{"double-init", checkDoubleInit},
		{"rogue-entry", checkRogueEntry},
		{"cost", checkCost},
		{"switch", checkSwitch},
		{"registers", checkRegisters},
	}
	for _, f := range gateFlavours {
		for _, c := range checks {
			t.Run(f.label+"/"+c.name, func(t *testing.T) { c.check(t, f) })
		}
	}
}

func TestRegistryNames(t *testing.T) {
	for _, tc := range []struct {
		name, canonical string
		strength        Strength
	}{
		{"none", "none", StrengthNone},
		{"intel-mpk", "intel-mpk", StrengthIntraAS},
		{"mpk", "intel-mpk", StrengthIntraAS},
		{"vm-ept", "vm-ept", StrengthInterAS},
		{"ept", "vm-ept", StrengthInterAS},
		{"cheri", "cheri", StrengthIntraAS},
		{"intel-sgx", "intel-sgx", StrengthInterAS},
		{"sgx", "intel-sgx", StrengthInterAS},
		{"", "none", StrengthNone},
		{"trustzone", "trustzone", StrengthNone},
	} {
		if got := Canonical(tc.name); got != tc.canonical {
			t.Errorf("Canonical(%q) = %q, want %q", tc.name, got, tc.canonical)
		}
		if got := StrengthOf(tc.name); got != tc.strength {
			t.Errorf("StrengthOf(%q) = %v, want %v", tc.name, got, tc.strength)
		}
		b, err := ForName(tc.name)
		if tc.name == "" || tc.name == "trustzone" {
			if err == nil {
				t.Errorf("ForName(%q) accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ForName(%q): %v", tc.name, err)
		}
		if b.Name() != Canonical(tc.name) || b.Strength() != StrengthOf(tc.name) {
			t.Errorf("ForName(%q) = %s/%v, want %s/%v", tc.name, b.Name(), b.Strength(), Canonical(tc.name), StrengthOf(tc.name))
		}
	}
}

func TestBackendStrengthOrdering(t *testing.T) {
	none, _ := ForName("none")
	mpk, _ := ForName("mpk")
	ept, _ := ForName("ept")
	if !(none.Strength() < mpk.Strength() && mpk.Strength() < ept.Strength()) {
		t.Fatalf("strength ordering broken: %v %v %v",
			none.Strength(), mpk.Strength(), ept.Strength())
	}
}

func TestMPKKeyAssignment(t *testing.T) {
	sys := newSys(t, 3)
	initBackend(t, mustBackend(t, "intel-mpk"), sys)
	if sys.Comps[0].Key != mem.KeyTCB {
		t.Fatalf("comp0 key = %d, want TCB key", sys.Comps[0].Key)
	}
	seen := map[mem.Key]bool{}
	for _, c := range sys.Comps {
		if seen[c.Key] {
			t.Fatalf("duplicate key %d", c.Key)
		}
		if c.Key == mem.KeyShared {
			t.Fatal("compartment assigned the shared key")
		}
		seen[c.Key] = true
	}
}

// The per-mechanism tests below are spot checks of the flavour table.

func TestMPKRejectsTooManyCompartments(t *testing.T) {
	checkTooManyCompartments(t, flavourByLabel(t, "mpk/full"))
}

func TestMPKDoubleInit(t *testing.T) { checkDoubleInit(t, flavourByLabel(t, "mpk/full")) }

func TestMPKThreadCreationHookInstallsDomain(t *testing.T) {
	sys := newSys(t, 2)
	initBackend(t, mustBackend(t, "intel-mpk"), sys)
	th := sys.Sched.Spawn("app", 1)
	c1 := sys.Comps[1]
	if th.PKRU != c1.PKRU() {
		t.Fatalf("thread PKRU = %v, want %v", th.PKRU, c1.PKRU())
	}
	if !th.PKRU.CanWrite(c1.Key) || !th.PKRU.CanWrite(mem.KeyShared) {
		t.Fatal("thread must access its own key and the shared domain")
	}
	if th.PKRU.CanRead(mem.KeyTCB) {
		t.Fatal("app thread must not read TCB memory")
	}
}

func TestMPKGateSwitchesDomainAndRestores(t *testing.T) {
	checkSwitch(t, flavourByLabel(t, "mpk/full"))
}

func TestMPKGateEnforcesEntryPoints(t *testing.T) {
	checkRogueEntry(t, flavourByLabel(t, "mpk/full"))
}

func TestMPKGateCostsMatchFig11b(t *testing.T) {
	light, full := flavourByLabel(t, "mpk/light"), flavourByLabel(t, "mpk/full")
	checkCost(t, light)
	checkCost(t, full)
	// "MPK light gates are 80% faster than normal MPK gates."
	if !(light.cost < full.cost) {
		t.Error("light gate must be cheaper than full gate")
	}
}

func TestMPKFullGateIsolatesRegisters(t *testing.T) {
	checkRegisters(t, flavourByLabel(t, "mpk/full"))
	checkRegisters(t, flavourByLabel(t, "mpk/light"))
}

func TestMPKGateStackSwitch(t *testing.T) {
	sys, th, g := flavourByLabel(t, "mpk/full").bind(t)
	calleeStack := sched.NewStack(sys.AS, 0, 8*mem.PageSize, false, sys.Mach)
	th.SetStack(0, calleeStack)
	var depthInside int
	g.Call(th, svc(func() error {
		depthInside = calleeStack.Depth()
		return nil
	}))
	if depthInside != 1 {
		t.Fatalf("callee stack depth inside gate = %d, want 1", depthInside)
	}
	if calleeStack.Depth() != 0 {
		t.Fatal("gate must pop the callee frame on return")
	}
}

func TestSameCompartmentGateIsPlainCall(t *testing.T) {
	for _, name := range []string{"none", "mpk", "ept", "cheri", "sgx"} {
		sys := newSys(t, 2)
		b := mustBackend(t, name)
		initBackend(t, b, sys)
		g, err := b.Gate(1, 1, GateDefault)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cost() != sys.Mach.Costs.FuncCall {
			t.Fatalf("%s same-comp gate cost = %d, want %d", name, g.Cost(), sys.Mach.Costs.FuncCall)
		}
	}
}

func TestNoneBackendAllowsEverything(t *testing.T) {
	sys := newSys(t, 3)
	b := NewNone()
	initBackend(t, b, sys)
	th := sys.Sched.Spawn("app", 2)
	if th.PKRU != mem.PKRUAllowAll {
		t.Fatal("none backend must leave threads in the allow-all domain")
	}
	g, _ := b.Gate(2, 0, GateDefault)
	cost := sys.Mach.Clock.Span(func() {
		g.Call(th, rogue{})
	})
	if cost != sys.Mach.Costs.FuncCall {
		t.Fatalf("none gate cost = %d, want plain call", cost)
	}
}

func TestEPTGateCostAndCFI(t *testing.T) {
	// The RPC server rejects illegal function pointers.
	f := flavourByLabel(t, "ept/rpc")
	checkCost(t, f)
	checkRogueEntry(t, f)
}

func TestEPTSpawnsRPCServerPools(t *testing.T) {
	sys := newSys(t, 3)
	initBackend(t, mustBackend(t, "vm-ept"), sys)
	// 3 VMs x 4 server threads, each installed in its VM's domain.
	if got := sys.Sched.Threads(); got != 12 {
		t.Fatalf("RPC server threads = %d, want 12", got)
	}
	th := sys.Sched.Spawn("app", 2)
	if th.PKRU != sys.Comps[2].PKRU() {
		t.Fatal("thread creation hook must install the VM's view")
	}
}

func TestEPTTCBDuplication(t *testing.T) {
	sys := newSys(t, 3)
	b := mustBackend(t, "vm-ept")
	initBackend(t, b, sys)
	st := b.Stats()
	if st.VMs != 3 || st.TCBCopies != 3 {
		t.Fatalf("EPT stats = %+v, want 3 VMs / 3 TCB copies", st)
	}
	if mustBackend(t, "intel-mpk").Stats().TCBCopies != 1 {
		t.Fatal("MPK must not duplicate the TCB")
	}
}

func TestGateCostOrderingAcrossBackends(t *testing.T) {
	// Fig. 11b ordering: call < cheri < mpk-light < mpk-full < ept < sgx.
	prev := machine.DefaultCosts().FuncCall
	for _, label := range []string{"cheri/cinvoke", "mpk/light", "mpk/full", "ept/rpc", "sgx/ecall"} {
		_, _, g := flavourByLabel(t, label).bind(t)
		if g.Cost() <= prev {
			t.Fatalf("%s gate cost %d does not exceed the previous %d", label, g.Cost(), prev)
		}
		prev = g.Cost()
	}
}

func TestGateUnknownCompartment(t *testing.T) {
	for _, f := range gateFlavours {
		sys := newSys(t, 2)
		b := mustBackend(t, f.mech)
		initBackend(t, b, sys)
		if _, err := b.Gate(0, 9, f.mode); err == nil {
			t.Fatalf("%s: gate to unknown compartment accepted", f.label)
		}
	}
}

func TestUninitializedBackendGate(t *testing.T) {
	for _, name := range []string{"none", "mpk", "ept", "cheri", "sgx"} {
		b, _ := ForName(name)
		if _, err := b.Gate(0, 1, GateDefault); err == nil {
			t.Fatalf("%s: gate before Init accepted", name)
		}
	}
}

func TestCrossCompartmentMemoryIsolationEndToEnd(t *testing.T) {
	// End-to-end: compartment 1 writes a secret into its private page;
	// compartment 2's thread cannot read it, but can after crossing a
	// gate into compartment 1.
	sys := newSys(t, 3)
	b := mustBackend(t, "intel-mpk")
	initBackend(t, b, sys)
	c1 := sys.Comps[1]
	secretPage := uintptr(10 * mem.PageSize)
	if err := sys.AS.SetKeyRange(secretPage, mem.PageSize, c1.Key); err != nil {
		t.Fatal(err)
	}
	owner := sys.Sched.Spawn("owner", 1)
	if err := sys.AS.Write(owner.PKRU, secretPage, []byte("secret")); err != nil {
		t.Fatal(err)
	}

	intruder := sys.Sched.Spawn("intruder", 2)
	err := sys.AS.Read(intruder.PKRU, secretPage, make([]byte, 6))
	if !mem.IsFault(err, mem.FaultKeyViolation) {
		t.Fatalf("intruder read: got %v, want key violation", err)
	}

	g, _ := b.Gate(2, 1, GateFull)
	err = g.Call(intruder, svc(func() error {
		return sys.AS.Read(intruder.PKRU, secretPage, make([]byte, 6))
	}))
	if err != nil {
		t.Fatalf("legitimate gated read failed: %v", err)
	}
}

func TestSGXBackend(t *testing.T) {
	// Ecall-table enforcement; registers are always scrubbed (no light
	// flavor).
	f := flavourByLabel(t, "sgx/ecall")
	checkCost(t, f)
	checkRogueEntry(t, f)
	checkRegisters(t, f)
	// ECALL round trips dwarf even EPT RPC.
	if ept := flavourByLabel(t, "ept/rpc"); f.cost <= ept.cost {
		t.Fatalf("SGX gate cost %d should exceed EPT's %d", f.cost, ept.cost)
	}
	if StrengthOf("intel-sgx") != StrengthInterAS {
		t.Fatal("SGX must rank at inter-AS strength (protects against the TCB)")
	}
}

func TestSGXEnclaveMemoryHiddenFromDefaultCompartment(t *testing.T) {
	// Unlike MPK's TCB key 0 view, enclave pages are unreadable from
	// compartment 0's domain too: confidentiality against the host.
	sys := newSys(t, 2)
	initBackend(t, mustBackend(t, "intel-sgx"), sys)
	encl := sys.Comps[1]
	page := uintptr(4 * mem.PageSize)
	if err := sys.AS.SetKeyRange(page, mem.PageSize, encl.Key); err != nil {
		t.Fatal(err)
	}
	host := sys.Sched.Spawn("host", 0)
	err := sys.AS.Read(host.PKRU, page, make([]byte, 8))
	if !mem.IsFault(err, mem.FaultKeyViolation) {
		t.Fatalf("host read of enclave memory: got %v, want fault", err)
	}
}
