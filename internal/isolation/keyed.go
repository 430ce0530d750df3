package isolation

import (
	"fmt"

	"flexos/internal/machine"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// flavour is one gate variant of a keyed mechanism.
type flavour struct {
	// label is the gate's String ("mpk/full", "ept/rpc", ...).
	label string
	// cost is the fixed round-trip cost (Fig. 11b), read once per gate.
	cost func(*machine.CostModel) uint64
	// scrub saves and zeroes the caller's register set around the call.
	scrub bool
	// stack switches to the callee's stack from the stack registry.
	stack bool
}

// mechanism is one row of the keyed-domain recipe every non-NONE backend
// follows (§3.2): each compartment gets one protection key (the
// compartment holding the TCB keeps key 0), key 15 is the shared
// communication domain, gates switch the thread's key view around a call
// to a legal entry point, and scheduler hooks install the view on thread
// creation and context switch. The rows differ only in the fields below.
type mechanism struct {
	// name is the canonical configuration-file name; aliases are the
	// other names that select it.
	name    string
	aliases []string
	// strength ranks the mechanism for the partial safety ordering.
	strength Strength
	// tcbLoC is the trusted-computing-base size the paper reports (§3.3).
	tcbLoC int
	// rpcThreads, when non-zero, makes every compartment its own VM with
	// its own TCB copy (§3.1) and a pool of that many RPC-server threads
	// (multithreaded load support, §4.2).
	rpcThreads int
	// restricted lets spare keys back shared domains visible to only a
	// subset of compartments (§4.1).
	restricted bool
	// full serves GateDefault and GateFull; light serves GateLight, or
	// full when nil.
	full, light *flavour
}

// noneMech is the NONE row: no keys, so ForName returns NoneBackend.
var noneMech = &mechanism{name: "none", strength: StrengthNone}

// mpkMech implements isolation with Intel Memory Protection Keys (§4.1).
// The per-thread PKRU register is switched by gates on domain transitions
// and installed by scheduler hooks on thread creation and context switch.
// Because FlexOS loads no code after compilation, unauthorized wrpkru
// instructions are excluded by static binary analysis plus strict W^X
// (§4.1); the simulation models this by only ever mutating PKRU inside
// gate and hook code. The paper reports ~3000 LoC of TCB.
//
// The full gate (HODOR-style) (1) saves the caller's register set, (2)
// clears registers, (3) loads arguments, (4) saves the stack pointer, (5)
// switches thread permissions, (6) switches the stack via the
// compartment's stack registry, and (7) executes the call; the sequence
// runs in reverse on return. The light gate (ERIM-style) only switches
// the PKRU around a normal call, sharing stacks and registers.
var mpkMech = &mechanism{
	name: "intel-mpk", aliases: []string{"mpk"},
	strength: StrengthIntraAS, tcbLoC: 3000, restricted: true,
	full:  &flavour{label: "mpk/full", cost: (*machine.CostModel).MPKFullGate, scrub: true, stack: true},
	light: &flavour{label: "mpk/light", cost: (*machine.CostModel).MPKLightGate},
}

// eptMech implements VM-based isolation (§4.2): every compartment is a
// separate virtual machine containing a copy of the TCB (boot code,
// scheduler, memory manager, backend runtime) plus the compartment's
// libraries. Cross-compartment calls are shared-memory RPCs: the caller
// deposits a function pointer and arguments in a predefined shared area,
// the target VM's busy-waiting RPC server validates that the pointer is a
// legal API entry point — compartments can only be left and entered at
// well-defined points — executes, and writes back the return value. The
// callee runs on the server thread's register file, modeled by scrubbing
// like the full MPK gate. The EPT runtime TCB is smaller than MPK's
// (§3.3). The mechanism has no cheaper crossing, so GateLight requests
// get the RPC gate too (462 cycles round-trip, Fig. 11b).
//
// Simulation note: VM-private memory is tagged with a per-VM permission
// key (the analogue of its EPT mapping); an access from the wrong VM
// faults as an EPT violation. The shared window is the region tagged
// mem.KeyShared, "mapped at the same address in the different
// compartments" by construction since there is a single simulated
// physical memory.
var eptMech = &mechanism{
	name: "vm-ept", aliases: []string{"ept"},
	strength: StrengthInterAS, tcbLoC: 2000, rpcThreads: 4,
	full: &flavour{label: "ept/rpc", cost: func(c *machine.CostModel) uint64 { return c.EPTGate }, scrub: true},
}

// cheriMech realizes the backend sketched in §4.3: domain crossings use
// the CInvoke instruction with sentry capabilities, which make jumping
// anywhere but a legal entry point architecturally impossible; gates save
// the caller context, clear traditional and capability registers, and
// install the callee context.
//
// Following the paper's "first step", the backend uses the hybrid pointer
// model: shared-data annotations become __capability qualifiers, so
// shared variables are passed as capabilities instead of being copied
// into a shared region — which is why this backend reports byte-granular
// sharing to the safety ordering (it can "reduce data sharing" and
// "address confused-deputy situations").
//
// Simulation note: CHERI allows many more domains than MPK, but the
// simulation supports only as many as its key table; CInvoke is
// register-to-register, cheaper than a PKRU serialization, and is
// modeled at half the MPK light gate.
var cheriMech = &mechanism{
	name:     "cheri",
	strength: StrengthIntraAS, tcbLoC: 2500,
	full: &flavour{label: "cheri/cinvoke", cost: func(c *machine.CostModel) uint64 { return c.MPKLightGate() / 2 }, scrub: true},
}

// sgxMech implements the Intel SGX backend the paper lists as future
// work (§9). §3.1 classifies SGX with the privilege-switching mechanisms:
// gates switch the current privilege (enter/leave an enclave) rather than
// crossing into another system.
//
// Model: each non-default compartment is an enclave. Enclave memory (the
// EPC analogue) is private — tagged with a per-enclave key — and readable
// by nothing else, including the default compartment: unlike MPK, SGX
// protects the compartment even from more-privileged code, which is why
// it ranks at inter-AS strength. Communication uses the untrusted shared
// domain. Gates are ECALL/OCALL round trips: expensive (~7.6k cycles on
// SGX1-era hardware, dwarfing even EPT RPC), always register-scrubbing,
// and enforced against a fixed ecall table — the entry-point set. The
// SGX runtime (enclave loader, ecall dispatch) is comparable to the MPK
// backend's TCB.
var sgxMech = &mechanism{
	name: "intel-sgx", aliases: []string{"sgx"},
	strength: StrengthInterAS, tcbLoC: 3500,
	full: &flavour{label: "sgx/ecall", cost: func(c *machine.CostModel) uint64 { return c.SGXGate }, scrub: true},
}

// registry maps every configuration-file mechanism name and alias to its
// row. Registering a new mechanism here is step (5) of the paper's
// porting recipe (§3.2: "registering the newly created backend into the
// toolchain").
var registry = func() map[string]*mechanism {
	r := map[string]*mechanism{}
	for _, m := range []*mechanism{noneMech, mpkMech, eptMech, cheriMech, sgxMech} {
		r[m.name] = m
		for _, a := range m.aliases {
			r[a] = m
		}
	}
	return r
}()

// ForName instantiates a backend by its configuration name.
func ForName(name string) (Backend, error) {
	m, ok := registry[name]
	switch {
	case !ok:
		return nil, fmt.Errorf("isolation: unknown mechanism %q", name)
	case m == noneMech:
		return NewNone(), nil
	}
	return &keyedBackend{mechanism: m}, nil
}

// Canonical maps a mechanism name or alias onto its canonical name, so
// that two configurations naming the same backend differently share one
// identity. The empty name is "none"; an unknown name maps to itself.
func Canonical(name string) string {
	if name == "" {
		return noneMech.name
	}
	if m, ok := registry[name]; ok {
		return m.name
	}
	return name
}

// StrengthOf ranks a mechanism name or alias; unknown names rank as
// StrengthNone.
func StrengthOf(name string) Strength {
	if m, ok := registry[name]; ok {
		return m.strength
	}
	return StrengthNone
}

// keyedBackend runs one mechanism row.
type keyedBackend struct {
	*mechanism
	sys     *System
	nextKey mem.Key
	// groups maps a canonical compartment-group string to the key
	// allocated for its restricted shared domain.
	groups map[string]mem.Key
}

// Name implements Backend.
func (b *keyedBackend) Name() string { return b.name }

// Strength implements Backend.
func (b *keyedBackend) Strength() Strength { return b.strength }

// MaxCompartments implements Backend: 16 keys, minus the shared domain,
// leaves 15. EPT's architectural limit is the vCPUs one dedicates, and
// CHERI's is far higher, but both reuse the simulated 16-entry key table.
func (b *keyedBackend) MaxCompartments() int { return 15 }

// Init implements Backend: assigns each compartment a key (compartment 0,
// holding the TCB, keeps key 0), registers the domain-maintenance hooks
// and spawns the RPC-server pools.
func (b *keyedBackend) Init(sys *System) error {
	if b.sys != nil {
		return fmt.Errorf("isolation: %s backend initialized twice", b.name)
	}
	if len(sys.Comps) > b.MaxCompartments() {
		return fmt.Errorf("isolation: %s supports at most %d compartments, image has %d",
			b.name, b.MaxCompartments(), len(sys.Comps))
	}
	b.sys = sys
	b.nextKey = 1
	for _, c := range sys.Comps {
		if c.ID == 0 {
			c.Key = mem.KeyTCB
			continue
		}
		if b.nextKey >= mem.KeyShared {
			return fmt.Errorf("isolation: out of protection keys")
		}
		c.Key = b.nextKey
		b.nextKey++
	}
	sys.Sched.RegisterHooks(keyedHooks{sys})
	for _, c := range sys.Comps {
		for i := 0; i < b.rpcThreads; i++ {
			sys.Sched.Spawn(fmt.Sprintf("rpc-%s-%d", c.Name, i), c.ID)
		}
	}
	return nil
}

// keyedHooks is the backend's use of the kernel hook API: the thread
// creation hook switches a newly created thread to its compartment's
// domain (the example given in §3.2), and the switch hook re-installs the
// incoming thread's view, since the key register is per-thread state.
type keyedHooks struct{ sys *System }

func (h keyedHooks) ThreadCreated(t *sched.Thread) {
	if c := h.sys.Comp(t.Comp); c != nil {
		t.PKRU = c.PKRU()
	}
}

func (h keyedHooks) ThreadSwitch(_, to *sched.Thread) {
	if to != nil {
		h.ThreadCreated(to)
	}
}

// Gate implements Backend. GateDefault maps to the full flavour.
func (b *keyedBackend) Gate(from, to sched.CompID, mode GateMode) (Gate, error) {
	if b.sys == nil {
		return nil, fmt.Errorf("isolation: %s backend not initialized", b.name)
	}
	if from == to {
		return NewFuncGate(b.sys.Mach), nil
	}
	src, dst := b.sys.Comp(from), b.sys.Comp(to)
	if src == nil || dst == nil {
		return nil, fmt.Errorf("isolation: gate between unknown compartments %d -> %d", from, to)
	}
	f := b.full
	if mode == GateLight && b.light != nil {
		f = b.light
	}
	return &keyedGate{mach: b.sys.Mach, to: dst, label: f.label,
		cost: f.cost(&b.sys.Mach.Costs), scrub: f.scrub, stack: f.stack}, nil
}

// Stats implements Backend.
func (b *keyedBackend) Stats() ImageStats {
	vms := 1
	if b.rpcThreads > 0 && b.sys != nil {
		vms = len(b.sys.Comps)
	}
	return ImageStats{VMs: vms, TCBCopies: vms, TCBLoC: b.tcbLoC}
}

// RestrictedDomain implements RestrictedSharer: it allocates one of the
// remaining protection keys for a shared domain covering exactly the
// given compartments, granting each of them access via ExtraKeys.
// Requests for the same group reuse the same key. Mechanisms without
// restricted domains always decline.
func (b *keyedBackend) RestrictedDomain(comps []sched.CompID) (mem.Key, bool) {
	if !b.restricted || b.sys == nil || len(comps) == 0 {
		return 0, false
	}
	sorted := append([]sched.CompID(nil), comps...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	tag := ""
	for _, c := range sorted {
		tag += fmt.Sprintf("%d,", c)
	}
	if b.groups == nil {
		b.groups = make(map[string]mem.Key)
	}
	if k, ok := b.groups[tag]; ok {
		return k, true
	}
	if b.nextKey >= mem.KeyShared {
		return 0, false // out of keys: caller falls back to the shared heap
	}
	k := b.nextKey
	b.nextKey++
	b.groups[tag] = k
	for _, id := range sorted {
		if c := b.sys.Comp(id); c != nil {
			c.ExtraKeys = append(c.ExtraKeys, k)
		}
	}
	return k, true
}

// keyedGate is a bound gate of one flavour into one compartment.
type keyedGate struct {
	mach  *machine.Machine
	to    *Compartment
	label string
	cost  uint64
	scrub bool
	stack bool
}

// String implements Gate.
func (g *keyedGate) String() string { return g.label }

// Cost implements Gate.
func (g *keyedGate) Cost() uint64 { return g.cost }

// Call implements Gate. Hardcoded gates mean compartments can only be
// entered at well-defined points, an inexpensive form of CFI (§4.1).
func (g *keyedGate) Call(t *sched.Thread, entry string, callee Callee) error {
	if !g.to.EntryPoints[entry] {
		return CFIFault(g.to.Name, entry)
	}
	g.mach.Charge(g.cost)

	pkru := g.to.PKRU()
	savedPKRU, savedComp := t.PKRU, t.Comp
	var savedRegs [8]uint64
	if g.scrub {
		savedRegs = t.Regs
		t.Regs = [8]uint64{}
	}
	var calleeStack *sched.Stack
	if g.stack {
		if calleeStack = t.Stack(g.to.ID); calleeStack != nil {
			if err := calleeStack.PushFrame(pkru, false); err != nil {
				return err
			}
		}
	}
	t.PKRU = pkru
	t.Comp = g.to.ID

	err := callee.Run()

	t.PKRU = savedPKRU
	t.Comp = savedComp
	if calleeStack != nil {
		if perr := calleeStack.PopFrame(pkru); perr != nil && err == nil {
			err = perr
		}
	}
	if g.scrub {
		t.Regs = savedRegs
	}
	return err
}
