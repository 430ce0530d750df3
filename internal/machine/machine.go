// Package machine provides the virtual execution substrate underneath the
// FlexOS simulation: a deterministic cycle clock and a cost model calibrated
// against the numbers the paper reports for an Intel Xeon Silver 4114
// @ 2.2 GHz (FlexOS, ASPLOS'22, Figures 10 and 11).
//
// Everything above this package (memory, scheduler, isolation backends,
// applications) accounts for its work by advancing a Clock. Converting the
// final cycle count back to wall-clock time or throughput uses the model's
// CPU frequency. Because the clock is virtual, experiments are deterministic
// and run in milliseconds regardless of the simulated duration.
package machine

import "fmt"

// Clock is a virtual cycle counter. It is the single source of simulated
// time: all simulated work, gate crossings, faults, and I/O advance it.
// The zero value is a clock at cycle zero, ready to use.
type Clock struct {
	cycles uint64
}

// Advance adds n cycles to the clock.
func (c *Clock) Advance(n uint64) { c.cycles += n }

// Cycles returns the number of cycles elapsed since the clock was created
// (or last reset).
func (c *Clock) Cycles() uint64 { return c.cycles }

// Reset sets the clock back to cycle zero.
func (c *Clock) Reset() { c.cycles = 0 }

// Seconds converts the elapsed cycles into seconds at the given CPU
// frequency in Hz.
func (c *Clock) Seconds(freqHz float64) float64 {
	return float64(c.cycles) / freqHz
}

// Span measures the cycles consumed by fn.
func (c *Clock) Span(fn func()) uint64 {
	start := c.cycles
	fn()
	return c.cycles - start
}

// String implements fmt.Stringer.
func (c *Clock) String() string { return fmt.Sprintf("%d cycles", c.cycles) }

// CostModel holds the per-primitive cycle costs that drive the simulation.
// The defaults (see DefaultCosts) are calibrated against the
// microbenchmarks of the FlexOS paper (Figure 11) and its cited numbers, so
// that macro-level results reproduce the paper's shape.
//
// All costs are round-trip unless stated otherwise.
type CostModel struct {
	// FreqHz is the simulated CPU frequency, used to convert cycles to
	// seconds (Xeon Silver 4114: 2.2 GHz).
	FreqHz float64

	// FuncCall is a plain same-compartment function call round-trip
	// (Fig. 11b: 2 cycles).
	FuncCall uint64

	// WrPKRU is the cost of a single wrpkru instruction plus its
	// serializing effects. An MPK light gate performs two of them (enter +
	// exit), plus a handful of moves; Fig. 11b reports 62 cycles for the
	// light gate round-trip.
	WrPKRU uint64

	// MPKLightGateFixed is the non-wrpkru part of the light gate (entry
	// point dispatch, argument shuffling).
	MPKLightGateFixed uint64

	// MPKFullGateExtra is the additional round-trip cost of the full MPK
	// gate over the light one: register save + zeroing, stack-registry
	// lookup and stack switch (Fig. 11b: 108 total => 46 extra).
	MPKFullGateExtra uint64

	// EPTGate is the shared-memory RPC round-trip between two VMs with
	// busy-waiting servers (Fig. 11b: 462 cycles).
	EPTGate uint64

	// SyscallNoKPTI and SyscallKPTI are Linux system call round-trips
	// without and with kernel page-table isolation (Fig. 11b: 146 / 470).
	SyscallNoKPTI uint64
	SyscallKPTI   uint64

	// SGXGate is an enclave ECALL/OCALL round trip (SGX1-era hardware:
	// several thousand cycles; used by the SGX backend the paper lists
	// as future work).
	SGXGate uint64

	// SeL4IPC is a one-way seL4 IPC; a cross-component call under
	// SeL4/Genode costs two IPCs plus capability validation. Calibrated so
	// that the SQLite macro-benchmark lands at the paper's 3.1x-over-MPK3
	// point (Fig. 10).
	SeL4IPC uint64

	// PkeyMprotect is the cost of a pkey_mprotect system call, used by
	// CubicleOS for domain transitions (orders of magnitude above wrpkru).
	PkeyMprotect uint64

	// TrapAndMap is CubicleOS' page-fault-driven window mapping cost per
	// shared-data access from a foreign compartment.
	TrapAndMap uint64

	// StackAlloc is the constant per-variable stack (and DSS) allocation
	// cost (Fig. 11a: 2 cycles).
	StackAlloc uint64

	// HeapAllocFast / HeapAllocSlow bound a general-purpose allocator's
	// fast and slow path (Fig. 11a: one to two orders of magnitude over
	// stack; §4.1: 30-60 cycles fast path, thousands slow path; measured
	// 100-300+ including the shared-heap bookkeeping).
	HeapAllocFast uint64
	HeapAllocSlow uint64

	// HeapFree is the cost of returning a heap block.
	HeapFree uint64

	// MemCopyPerByte models bulk copies through the simulated address
	// space (order: one cache line / few cycles => ~0.1 cy/B amortized; we
	// charge integer cycles per 16-byte chunk via CopyCost).
	MemCopyBytesPerCycle uint64

	// PageFault is the cost of a protection fault (MPK key mismatch,
	// KASan redzone hit) being raised and handled.
	PageFault uint64

	// VMExit is the cost of an EPT violation / vmexit, charged when a
	// compartment attempts to touch another VM's memory.
	VMExit uint64

	// ContextSwitch is a scheduler context switch between threads.
	ContextSwitch uint64

	// TLBShootdown models remote TLB invalidation for PT-based isolation
	// backends (page-table switching baselines).
	TLBShootdown uint64
}

// DefaultCosts returns the cost model calibrated against the paper's Xeon
// Silver 4114. See the CostModel field docs for the mapping to Figure 11.
func DefaultCosts() CostModel {
	return CostModel{
		FreqHz:               2.2e9,
		FuncCall:             2,
		WrPKRU:               26,
		MPKLightGateFixed:    10, // 2*26 + 10 = 62 (Fig. 11b, MPK-light)
		MPKFullGateExtra:     46, // 62 + 46 = 108 (Fig. 11b, MPK-dss)
		EPTGate:              462,
		SyscallNoKPTI:        146,
		SyscallKPTI:          470,
		SGXGate:              7600,
		SeL4IPC:              570,
		PkeyMprotect:         1400,
		TrapAndMap:           2600,
		StackAlloc:           2,
		HeapAllocFast:        100,
		HeapAllocSlow:        850,
		HeapFree:             40,
		MemCopyBytesPerCycle: 16,
		PageFault:            1200,
		VMExit:               1700,
		ContextSwitch:        620,
		TLBShootdown:         900,
	}
}

// MPKLightGate is the full round-trip cost of the light (stack-sharing)
// MPK gate: two PKRU writes plus fixed dispatch overhead.
func (m CostModel) MPKLightGate() uint64 {
	return 2*m.WrPKRU + m.MPKLightGateFixed
}

// MPKFullGate is the full round-trip cost of the register-isolating,
// stack-switching MPK gate (the "-dss" gate in the paper's plots).
func (m CostModel) MPKFullGate() uint64 {
	return m.MPKLightGate() + m.MPKFullGateExtra
}

// CopyCost returns the cycle cost of copying n bytes through the simulated
// memory system.
func (m *CostModel) CopyCost(n int) uint64 {
	if n <= 0 {
		return 0
	}
	bpc := m.MemCopyBytesPerCycle
	if bpc == 0 {
		bpc = 16
	}
	return (uint64(n) + bpc - 1) / bpc
}

// Validate reports an error if the model is internally inconsistent (zero
// frequency, light gate more expensive than full gate, etc.). Builders call
// this before accepting a user-supplied model.
func (m CostModel) Validate() error {
	switch {
	case m.FreqHz <= 0:
		return fmt.Errorf("machine: cost model frequency must be positive, got %v", m.FreqHz)
	case m.FuncCall == 0:
		return fmt.Errorf("machine: function call cost must be non-zero")
	case m.MPKFullGate() < m.MPKLightGate():
		return fmt.Errorf("machine: full MPK gate (%d) cheaper than light gate (%d)", m.MPKFullGate(), m.MPKLightGate())
	case m.EPTGate < m.MPKFullGate():
		return fmt.Errorf("machine: EPT gate (%d) cheaper than MPK full gate (%d); paper ordering violated", m.EPTGate, m.MPKFullGate())
	case m.HeapAllocFast < m.StackAlloc:
		return fmt.Errorf("machine: heap fast path (%d) cheaper than stack alloc (%d)", m.HeapAllocFast, m.StackAlloc)
	}
	return nil
}

// Machine bundles a clock with the cost model it is charged under. It is
// the context handed to every simulated subsystem.
type Machine struct {
	Clock Clock
	Costs CostModel
}

// New returns a machine with the given cost model. A zero-value CostModel
// is replaced by DefaultCosts.
func New(costs CostModel) *Machine {
	if costs.FreqHz == 0 {
		costs = DefaultCosts()
	}
	return &Machine{Costs: costs}
}

// Charge advances the clock by n cycles.
func (m *Machine) Charge(n uint64) { m.Clock.Advance(n) }

// ChargeCopy advances the clock by the cost of copying n bytes.
func (m *Machine) ChargeCopy(n int) { m.Clock.Advance(m.Costs.CopyCost(n)) }

// Seconds returns the simulated wall-clock time elapsed so far.
func (m *Machine) Seconds() float64 { return m.Clock.Seconds(m.Costs.FreqHz) }

// Throughput converts an operation count into operations/second of
// simulated time. It returns 0 when no time has elapsed.
func (m *Machine) Throughput(ops uint64) float64 {
	s := m.Seconds()
	if s == 0 {
		return 0
	}
	return float64(ops) / s
}
