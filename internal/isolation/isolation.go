// Package isolation defines FlexOS-Go's isolation backend API (§3.2 of the
// paper), its gate abstraction (§3.1), and the backends behind it: NONE
// (plain function calls) and four keyed-domain mechanisms — Intel MPK
// (intra-address-space protection keys, §4.1), EPT (one VM per
// compartment with shared-memory RPC, §4.2), CHERI (capability-checked
// domains, §4.3) and Intel SGX (enclaves, future work in §9).
//
// The contract mirrors the paper: an isolation mechanism only has to
// (1) implement protection domains with a domain-switching mechanism, and
// (2) support some form of shared memory for cross-domain communication.
// The four keyed mechanisms follow that one recipe, so a single backend
// runs them, driven by one table row per mechanism (keyed.go); the same
// table resolves every mechanism name, alias and strength. Backends plug
// into the core libraries through the scheduler hook API and into the
// toolchain through gate construction; nothing else in the system knows
// which mechanism is in use.
//
// Simulation note (see DESIGN.md): every keyed mechanism reuses the
// page-key machinery of internal/mem as its permission table. Under EPT
// one key per VM models each VM's second-level mapping, and key
// mismatches are reported as EPT violations. This preserves the
// functional semantics (disjoint protection domains, aliased shared
// window, entry-point-only crossings) while keeping a single simulated
// physical memory.
package isolation

import (
	"fmt"

	"flexos/internal/machine"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// Strength ranks mechanisms for the partial safety ordering (§5): a
// stronger mechanism probabilistically dominates a weaker one, all else
// equal.
type Strength int

const (
	// StrengthNone provides no isolation.
	StrengthNone Strength = iota
	// StrengthIntraAS is intra-address-space isolation (MPK, CHERI
	// hybrid): one address space, hardware-checked domains.
	StrengthIntraAS
	// StrengthInterAS is inter-address-space isolation (EPT/VM,
	// TrustZone): disjoint "worlds" communicating by RPC.
	StrengthInterAS
)

// String implements fmt.Stringer.
func (s Strength) String() string {
	switch s {
	case StrengthNone:
		return "none"
	case StrengthIntraAS:
		return "intra-AS"
	case StrengthInterAS:
		return "inter-AS"
	default:
		return fmt.Sprintf("strength(%d)", int(s))
	}
}

// GateMode selects a gate flavor for backends that provide several (§4.1:
// the MPK backend ships a full register-isolating, stack-switching gate
// and a lightweight stack-sharing one).
type GateMode int

const (
	// GateDefault lets the backend pick its full-safety gate.
	GateDefault GateMode = iota
	// GateLight requests the lightweight variant (MPK: ERIM-style PKRU
	// switch with shared stacks and register set).
	GateLight
	// GateFull requests the full-safety variant (MPK: HODOR-style; saves
	// and zeroes the register set, switches to the per-thread
	// per-compartment stack from the stack registry).
	GateFull
)

// String implements fmt.Stringer.
func (m GateMode) String() string {
	switch m {
	case GateLight:
		return "light"
	case GateFull:
		return "full"
	default:
		return "default"
	}
}

// Sharing selects the data sharing strategy for stack data (§4.1).
type Sharing int

const (
	// ShareDSS uses Data Shadow Stacks: thread stacks are doubled, the
	// upper half lives in the shared domain, shadow = &x + STACK_SIZE.
	ShareDSS Sharing = iota
	// ShareHeap converts shared stack allocations to shared-heap
	// allocations (the costly strategy of prior work).
	ShareHeap
	// ShareStack places whole stacks in the shared domain (fast, least
	// safe; pairs with GateLight).
	ShareStack
)

// String implements fmt.Stringer.
func (s Sharing) String() string {
	switch s {
	case ShareDSS:
		return "dss"
	case ShareHeap:
		return "heap"
	case ShareStack:
		return "stack"
	default:
		return fmt.Sprintf("sharing(%d)", int(s))
	}
}

// Compartment is one isolation domain of a built image. The builder
// creates compartments from the user configuration; the backend assigns
// protection resources (keys / VMs) during Init.
type Compartment struct {
	ID   sched.CompID
	Name string

	// Key is the protection key (MPK) or VM permission tag (EPT)
	// assigned by the backend.
	Key mem.Key

	// ExtraKeys are additional shared domains this compartment may
	// access (restricted pairwise shared regions, §4.1).
	ExtraKeys []mem.Key
}

// PKRU returns the protection register image for a thread executing in
// this compartment: own key + the global shared key + extra keys. Gates
// compute it on every crossing, so it allocates nothing.
func (c *Compartment) PKRU() mem.PKRU {
	p := mem.DomainPKRU(c.Key, mem.KeyShared)
	for _, k := range c.ExtraKeys {
		p = p.Allow(k)
	}
	return p
}

// System is the runtime context backends operate on: the machine, the
// scheduler, the (single, simulated-physical) address space, and the
// compartments of the image.
type System struct {
	Mach  *machine.Machine
	Sched *sched.Scheduler
	AS    *mem.AddrSpace
	Comps []*Compartment
}

// Comp returns the compartment with the given ID, or nil.
func (s *System) Comp(id sched.CompID) *Compartment {
	for _, c := range s.Comps {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Gate is a bound cross-compartment call gate. From the perspective of the
// caller and callee it is transparent (System V calling convention); from
// the system's perspective it performs the domain transition, charges its
// cost, and enforces entry points.
type Gate interface {
	// String describes the gate ("mpk/full", "ept/rpc", "call").
	String() string
	// Cost is the fixed round-trip cost in cycles, excluding argument
	// copies (reported in Fig. 11b).
	Cost() uint64
	// Call transfers control to callee inside the target compartment,
	// runs it there (with the thread's protection domain switched), and
	// returns to the caller's domain. The callee runs synchronously, as
	// the paper's gates are inlined calls, not trampolines. The callee
	// is an interface rather than a closure so that a caller can pass a
	// reused value and a crossing costs no host allocation.
	Call(t *sched.Thread, callee Callee) error
}

// Callee is the function a gate runs inside the target compartment.
type Callee interface {
	// EntryPoint reports whether the function is a legal entry into its
	// compartment, fixed at build time. Crossing gates enforce it (the
	// paper's "inexpensive albeit incomplete form of CFI").
	EntryPoint() bool
	// Symbol names the function, "lib.fn"; gates ask for it only to
	// report a rejected entry.
	Symbol() string
	// Run executes the function.
	Run() error
}

// ImageStats describes backend-level layout consequences, e.g. TCB
// duplication under multi-AS backends (§3.1 "for them, the trusted
// computing base is duplicated; one for each system").
type ImageStats struct {
	// VMs is the number of virtual machines the image comprises (1 for
	// intra-AS backends).
	VMs int
	// TCBCopies is how many copies of the TCB (boot, scheduler, memory
	// manager, backend runtime) the image carries.
	TCBCopies int
	// TCBLoC is the approximate trusted-computing-base size the paper
	// reports for the mechanism (§3.3: ~3000 LoC for MPK, less for EPT).
	TCBLoC int
}

// Backend abstracts an isolation mechanism. Porting FlexOS to a new
// mechanism is implementing this interface (gates, hooks, layout), as
// enumerated in §3.2.
type Backend interface {
	// Name is the configuration-file mechanism name ("intel-mpk", ...).
	Name() string
	// Strength ranks the mechanism for partial safety ordering.
	Strength() Strength
	// MaxCompartments is the architectural limit (MPK: 16 keys minus the
	// shared domain).
	MaxCompartments() int
	// Init assigns protection resources to the system's compartments and
	// registers scheduler hooks. It must be called exactly once, by the
	// image builder.
	Init(sys *System) error
	// Gate returns a bound gate from one compartment to another. Both
	// must belong to the system passed to Init. Same-compartment pairs
	// return a plain call gate.
	Gate(from, to sched.CompID, mode GateMode) (Gate, error)
	// Stats reports layout consequences of the mechanism.
	Stats() ImageStats
}

// RestrictedSharer is implemented by backends that can create shared
// domains visible to only a subset of compartments — §4.1: "If the image
// features less than 15 compartments, FlexOS uses remaining keys for
// additional shared domains between restricted groups of compartments."
// The builder uses it to place whitelisted __shared annotations in a
// domain only their whitelist can reach, instead of the global shared
// heap.
type RestrictedSharer interface {
	// RestrictedDomain returns a protection key covering exactly the
	// given compartments, allocating one if needed. It returns false
	// when the mechanism has no such domains (only MPK has them) or has
	// run out; callers then fall back to the global shared domain.
	RestrictedDomain(comps []sched.CompID) (mem.Key, bool)
}

// funcGate is the zero-overhead gate used when caller and callee share a
// compartment: the transformation collapses the abstract gate to a plain
// function call (Fig. 3, step 3').
type funcGate struct {
	mach *machine.Machine
}

// NewFuncGate returns the same-compartment gate.
func NewFuncGate(m *machine.Machine) Gate { return &funcGate{mach: m} }

func (g *funcGate) String() string { return "call" }
func (g *funcGate) Cost() uint64   { return g.mach.Costs.FuncCall }

func (g *funcGate) Call(t *sched.Thread, callee Callee) error {
	g.mach.Charge(g.mach.Costs.FuncCall)
	return callee.Run()
}

// CFIFault builds the fault returned when a gate or RPC server rejects an
// illegal entry point.
func CFIFault(space, entry string) error {
	return &mem.Fault{Kind: mem.FaultCFI, Space: space + ":" + entry}
}
