// Package core is FlexOS-Go's primary contribution: an OS image whose
// compartmentalization and protection profile is decided at build time.
//
// It mirrors the paper's pipeline (§3, Fig. 3):
//
//  1. Components ("micro-libraries") are written against an abstract
//     compartmentalization API: cross-library calls go through abstract
//     gates (Ctx.Call) and shared data is declared with annotations
//     (SharedVar, the __shared(...) marker).
//  2. At build time, Builder performs the "source transformations": it
//     binds every abstract gate to the configured isolation backend's
//     concrete gate (a plain call when caller and callee share a
//     compartment — zero overhead), lays out per-compartment sections,
//     heaps and stacks (the generated linker scripts), instantiates the
//     data sharing strategy (shared heap, DSS, or shared stacks), and
//     applies per-compartment software hardening by instrumenting the
//     compartment's allocator and gates.
//  3. The resulting Image runs workloads on the simulated machine,
//     charging the cycle clock for compute, gates and data movement.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// SharedVar is a __shared annotation (§3.1): a variable of a component
// that other libraries may access. With lists the whitelisted peer
// libraries; an empty list means the global shared domain.
//
// The builder allocates annotated variables in the shared communication
// domain (shared heap) so cross-compartment access does not fault —
// exactly what the paper's build-time transformation does for MPK.
type SharedVar struct {
	Name string
	Size int
	With []string
}

// FuncImpl is the body of a component function. It runs inside the
// callee's protection domain: memory accesses made through ctx use the
// thread's switched PKRU. a is the caller's argument frame; the returned
// value flows back through the gate.
type FuncImpl func(ctx *Ctx, a *Args) (Ret, error)

// MaxWords is the number of word slots in an argument frame: enough for
// the widest shipped signature, ramfs.write_node(id, off, src, n, mtime).
const MaxWords = 5

// Args is the fixed argument frame of a simulated call. Integers,
// addresses, descriptors and flags travel as words (see Bool), in the
// order the callee documents; S and B carry at most one string and one
// byte slice. A call passes its frame by value, so no argument is boxed
// and a call allocates nothing on the host.
type Args struct {
	W [MaxWords]uint64
	S string
	B []byte
}

// Words returns a frame whose leading word slots hold ws. It panics
// when given more than MaxWords words.
func Words(ws ...uint64) Args {
	var a Args
	if copy(a.W[:], ws) < len(ws) {
		panic(fmt.Sprintf("core: %d argument words, the frame holds %d", len(ws), MaxWords))
	}
	return a
}

// Ret is the value a simulated call returns: one word and one string.
type Ret struct {
	W uint64
	S string
}

// Int returns the word as an int.
func (r Ret) Int() int { return int(r.W) }

// Bool reports whether the word is non-zero.
func (r Ret) Bool() bool { return r.W != 0 }

// Bool encodes a flag as a word: 1 for true, 0 for false.
func Bool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Sym is an interned (library, function) pair: the name a simulated call
// is made by. Components keep their callees as package-level handles,
//
//	var symRecv = core.Symbol(netstack.Name, "recv")
//
// and Build indexes each image's call sites by Sym, so resolving a call
// hashes no string.
type Sym uint32

// symtab is the process-wide intern table behind Symbol.
var symtab struct {
	mu    sync.RWMutex
	ids   map[symKey]Sym
	names []symKey
}

// symKey is one (library, function) pair.
type symKey struct{ lib, fn string }

// Symbol interns lib.fn and returns its handle; the same pair always
// gives the same Sym within a process. It is safe for concurrent use and
// takes only a read lock for a pair already interned. The table is never
// trimmed: it holds one entry per distinct pair ever named, which is
// bounded by the (library, function) names written in code, because no
// component or function name is built at run time.
func Symbol(lib, fn string) Sym {
	k := symKey{lib, fn}
	symtab.mu.RLock()
	s, ok := symtab.ids[k]
	symtab.mu.RUnlock()
	if ok {
		return s
	}
	symtab.mu.Lock()
	defer symtab.mu.Unlock()
	if s, ok := symtab.ids[k]; ok {
		return s
	}
	if symtab.ids == nil {
		symtab.ids = make(map[symKey]Sym)
	}
	s = Sym(len(symtab.names))
	symtab.ids[k] = s
	symtab.names = append(symtab.names, k)
	return s
}

// Name returns the library and function s was interned from; a Sym no
// Symbol call returned names nothing.
func (s Sym) Name() (lib, fn string) {
	symtab.mu.RLock()
	defer symtab.mu.RUnlock()
	if uint(s) >= uint(len(symtab.names)) {
		return "", ""
	}
	k := symtab.names[s]
	return k.lib, k.fn
}

// Func is one entry in a component's interface.
type Func struct {
	// Name is the symbol, unique within the component.
	Name string
	// Work is the base compute cost in cycles charged per invocation
	// (before hardening multipliers). It models the function's own
	// instruction stream, which the simulation does not execute natively.
	Work uint64
	// Impl is the functional body; may be nil for pure-work functions.
	Impl FuncImpl
	// EntryPoint marks functions callable from other compartments.
	// Crossing gates ask the callee for it (the hardcoded-gates CFI of
	// §3.1/§4.1).
	EntryPoint bool
}

// Component is a micro-library in the Unikraft sense: the minimal
// granularity of isolation (P1). Components declare their functions,
// their shared-data annotations, and which other libraries they call
// (the static call graph the gate-insertion analysis of §3.1 derives).
//
// A component is a description: it holds no per-image state, so one
// value serves every catalog and every image of a process, concurrently.
// What its functions mutate lives in the value NewState returns, which
// each image that links the component gets afresh.
type Component struct {
	// Name is the library name used in configuration files ("lwip",
	// "uksched", "libredis", ...). Set it before adding functions.
	Name string
	// TCB marks trusted-computing-base components (boot, memory manager,
	// scheduler, backend runtime; §3.3). Multi-AS backends duplicate
	// them per VM.
	TCB bool
	// Verified marks formally verified components (§7 "Incremental
	// Verification": isolating a verified component preserves its proven
	// properties even when mixed with unverified code; the paper
	// formally verified a version of its scheduler with Dafny).
	Verified bool
	// Shared lists the component's __shared annotations. Its length is
	// the "shared vars" column of Table 1.
	Shared []SharedVar
	// Imports are the libraries this component calls — the build-time
	// call graph used to report gate bindings.
	Imports []string
	// PatchAdd/PatchDel record the porting-effort patch size from the
	// paper's Table 1 (informational; reproduced by the Table 1 harness).
	PatchAdd, PatchDel int
	// NewState returns fresh per-image state. Build calls it once for
	// every image that links the component, and the component's
	// function bodies reach the value through Ctx.State. Nil means the
	// component is stateless.
	NewState func() any
	// FreeState, when set, takes back a state NewState returned once
	// the image holding it is released (Image.Release). That image
	// never touches the state again, so NewState may hand it, reset, to
	// a later image. Nil leaves released state to the collector.
	FreeState func(state any)

	// funcs is the component's interface, sorted by name.
	funcs []linkedFunc
}

// linkedFunc is a function as AddFunc registered it, with the Sym
// Build binds it by.
type linkedFunc struct {
	*Func
	sym Sym
}

// NewComponent returns an empty component.
func NewComponent(name string) *Component {
	return &Component{Name: name}
}

// AddFunc registers a function and returns the component for chaining.
func (c *Component) AddFunc(f *Func) *Component {
	i, dup := slices.BinarySearchFunc(c.funcs, f.Name, funcOrder)
	if dup {
		panic(fmt.Sprintf("core: duplicate function %s.%s", c.Name, f.Name))
	}
	c.funcs = slices.Insert(c.funcs, i, linkedFunc{f, Symbol(c.Name, f.Name)})
	return c
}

// funcOrder orders linked functions by name.
func funcOrder(f linkedFunc, name string) int { return strings.Compare(f.Name, name) }

// AddShared records a __shared annotation.
func (c *Component) AddShared(v SharedVar) *Component {
	c.Shared = append(c.Shared, v)
	return c
}

// Func looks up a function.
func (c *Component) Func(name string) (*Func, bool) {
	i, ok := slices.BinarySearchFunc(c.funcs, name, funcOrder)
	if !ok {
		return nil, false
	}
	return c.funcs[i].Func, true
}

// Catalog is the set of available components an image can be built from —
// the analogue of the Unikraft library pool. It only names components, so
// one catalog serves any number of images, and one component may sit in
// any number of catalogs.
type Catalog struct {
	comps map[string]*Component
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{comps: make(map[string]*Component)}
}

// Register adds a component; duplicate names are an error.
func (cat *Catalog) Register(c *Component) error {
	if _, dup := cat.comps[c.Name]; dup {
		return fmt.Errorf("core: component %q already registered", c.Name)
	}
	cat.comps[c.Name] = c
	return nil
}

// MustRegister is Register that panics; used by component constructors in
// app packages where a duplicate is a programming error.
func (cat *Catalog) MustRegister(c *Component) {
	if err := cat.Register(c); err != nil {
		panic(err)
	}
}

// Lookup returns the named component.
func (cat *Catalog) Lookup(name string) (*Component, bool) {
	c, ok := cat.comps[name]
	return c, ok
}

// Names returns all registered component names, sorted.
func (cat *Catalog) Names() []string {
	names := make([]string, 0, len(cat.comps))
	for n := range cat.comps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered components.
func (cat *Catalog) Len() int { return len(cat.comps) }
