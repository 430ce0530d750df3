// Package libc implements the newlib analogue: the C library component
// FlexOS images link. Applications call it for parsing, formatting and
// string operations; Figure 6 toggles isolation and hardening on it under
// the name "newlib".
//
// The functional pieces operate on simulated memory through the context,
// so cross-compartment buffer bugs fault exactly as they would under MPK.
package libc

import (
	"slices"

	"flexos/internal/core"
)

// Name is the component name used in configuration files.
const Name = "newlib"

// Work costs per call (cycles), calibrated so that newlib accounts for a
// few hundred cycles of a Redis request (see DESIGN.md calibration notes).
const (
	parseWork  = 120
	formatWork = 130
	strcmpWork = 30
	memcpyBase = 20
)

// maxTokens bounds an image's parse intern table: past it, new tokens
// are returned as fresh strings.
const maxTokens = 64

// State is newlib's per-image host scratch.
type State struct {
	// scratch receives simulated reads; no body here calls back out, so
	// one buffer serves every call of an image.
	scratch []byte
	// tokens interns parse's results, so a request's command token
	// costs no host allocation.
	tokens map[string]string
}

// read reads n bytes at addr into the state's scratch.
func (st *State) read(ctx *core.Ctx, addr uintptr, n int) ([]byte, error) {
	st.scratch = slices.Grow(st.scratch[:0], n)[:n]
	return st.scratch, ctx.Read(addr, st.scratch)
}

// Register adds the newlib component to the catalog.
func Register(cat *core.Catalog) { cat.MustRegister(component) }

// component is newlib, built once per process.
var component = func() *core.Component {
	c := core.NewComponent(Name)
	// newlib row is not in Table 1 (it ships pre-ported with FlexOS),
	// but it is a first-class Figure 6 component.
	c.NewState = func() any { return &State{tokens: make(map[string]string)} }

	// parse tokenizes a request buffer in simulated memory: words are
	// (addr, n); returns the first token in S.
	c.AddFunc(&core.Func{
		Name: "parse", Work: parseWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			st := ctx.State().(*State)
			n := int(a.W[1])
			buf, err := st.read(ctx, uintptr(a.W[0]), n)
			if err != nil {
				return core.Ret{}, err
			}
			ctx.Charge(uint64(n)) // per-byte scan
			if i := slices.IndexFunc(buf, isDelim); i >= 0 {
				buf = buf[:i]
			}
			tok, ok := st.tokens[string(buf)]
			if !ok {
				tok = string(buf)
				if len(st.tokens) < maxTokens {
					st.tokens[tok] = tok
				}
			}
			return core.Ret{S: tok}, nil
		},
	})

	// format writes a reply into a buffer: the word is addr, the
	// payload is B; returns the byte count.
	c.AddFunc(&core.Func{
		Name: "format", Work: formatWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			ctx.Charge(uint64(len(a.B)))
			if err := ctx.Write(uintptr(a.W[0]), a.B); err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: uint64(len(a.B))}, nil
		},
	})

	// strcmp compares a simulated buffer to a constant: words are
	// (addr, n), the constant is S; returns a flag.
	c.AddFunc(&core.Func{
		Name: "strcmp", Work: strcmpWork, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			buf, err := ctx.State().(*State).read(ctx, uintptr(a.W[0]), int(a.W[1]))
			if err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: core.Bool(string(buf) == a.S)}, nil
		},
	})

	// memcpy copies between simulated buffers: words are (dst, src, n).
	c.AddFunc(&core.Func{
		Name: "memcpy", Work: memcpyBase, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			n := int(a.W[2])
			if err := ctx.Memmove(uintptr(a.W[0]), uintptr(a.W[1]), n); err != nil {
				return core.Ret{}, err
			}
			return core.Ret{W: uint64(n)}, nil
		},
	})

	// checked_add is the UBSan-instrumented arithmetic helper: words
	// are two int64 operands; overflow traps when the hosting
	// compartment enables ubsan.
	c.AddFunc(&core.Func{
		Name: "checked_add", Work: 6, EntryPoint: true,
		Impl: func(ctx *core.Ctx, a *core.Args) (core.Ret, error) {
			sum, err := ctx.Hardening().CheckedAdd(int64(a.W[0]), int64(a.W[1]))
			return core.Ret{W: uint64(sum)}, err
		},
	})
	return c
}()

// isDelim reports whether b ends a parse token.
func isDelim(b byte) bool { return b == ' ' || b == '\r' || b == '\n' || b == 0 }
