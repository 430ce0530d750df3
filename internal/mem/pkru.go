// Package mem implements the simulated memory substrate of FlexOS-Go:
// byte-addressable address spaces split into 4 KiB pages, Intel MPK-style
// per-page protection keys checked against a per-thread PKRU register,
// protection faults, and two allocators (TLSF-like and bump) with an
// optional KASan shadow for functional redzone checking.
//
// Every load/store performed by the simulated OS and applications goes
// through AddrSpace.Read / AddrSpace.Write, so isolation violations are
// detected functionally — not just charged for — exactly where the paper's
// MPK backend would raise a page fault.
package mem

import (
	"fmt"
	"strings"
)

// Key is an MPK protection key. Intel MPK provides 16 keys (4 bits in the
// page-table entry); FlexOS associates each compartment with one key and
// reserves one for the shared communication domain.
type Key uint8

// NumKeys is the number of protection keys the simulated MMU supports,
// matching Intel MPK.
const NumKeys = 16

// Reserved key conventions used by the MPK backend (mirroring §4.1 of the
// paper: one key per compartment, one key for the shared domain, remaining
// keys available for restricted pairwise shared domains).
const (
	// KeyTCB protects the trusted computing base (boot code, memory
	// manager, scheduler, backend runtime). Key 0 is the hardware default.
	KeyTCB Key = 0
	// KeyShared is the communication domain readable and writable by all
	// compartments (shared heap, DSS region, RPC windows).
	KeyShared Key = 15
)

// PKRU mirrors the x86 PKRU register: two bits per key, AD (access disable)
// in the even bit and WD (write disable) in the odd bit. A zero PKRU allows
// everything, like the hardware reset state.
type PKRU uint32

// PKRUAllowAll permits reads and writes under every key.
const PKRUAllowAll PKRU = 0

// PKRUDenyAll disables access for every key. Build thread-specific values
// with Allow.
func PKRUDenyAll() PKRU {
	var p PKRU
	for k := Key(0); k < NumKeys; k++ {
		p |= PKRU(0b11) << (2 * uint(k))
	}
	return p
}

// Allow returns a copy of p that grants read+write access under key k.
func (p PKRU) Allow(k Key) PKRU {
	return p &^ (PKRU(0b11) << (2 * uint(k)))
}

// AllowRead returns a copy of p that grants read-only access under key k.
func (p PKRU) AllowRead(k Key) PKRU {
	p = p &^ (PKRU(0b11) << (2 * uint(k))) // clear both bits
	return p | PKRU(0b10)<<(2*uint(k))     // set WD
}

// Deny returns a copy of p with all access under key k disabled.
func (p PKRU) Deny(k Key) PKRU {
	return p | PKRU(0b11)<<(2*uint(k))
}

// CanRead reports whether loads under key k are permitted.
func (p PKRU) CanRead(k Key) bool {
	return p&(PKRU(1)<<(2*uint(k))) == 0
}

// CanWrite reports whether stores under key k are permitted.
func (p PKRU) CanWrite(k Key) bool {
	return p&(PKRU(0b11)<<(2*uint(k))) == 0
}

// DomainPKRU builds the PKRU value a thread executing in a compartment
// holds: everything denied except the compartment's own key plus the listed
// extra keys (typically KeyShared and pairwise shared domains).
func DomainPKRU(own Key, extra ...Key) PKRU {
	p := PKRUDenyAll().Allow(own)
	for _, k := range extra {
		p = p.Allow(k)
	}
	return p
}

// String renders the register as a list of accessible keys, e.g.
// "pkru{rw:0,3 ro:5}".
func (p PKRU) String() string {
	var rw, ro []string
	for k := Key(0); k < NumKeys; k++ {
		switch {
		case p.CanWrite(k):
			rw = append(rw, fmt.Sprint(k))
		case p.CanRead(k):
			ro = append(ro, fmt.Sprint(k))
		}
	}
	s := "pkru{rw:" + strings.Join(rw, ",")
	if len(ro) > 0 {
		s += " ro:" + strings.Join(ro, ",")
	}
	return s + "}"
}
