package core

import (
	"sync"

	"flexos/internal/machine"
	"flexos/internal/mem"
)

// hostMem is the host memory one image is built on: its address space,
// the TLSF allocators of its heap arenas in layout order, and the
// backing of its call-site, gate and shared-variable tables. Build
// draws one from hostPool and Image.Release returns it, so a sweep of
// measurements writes into the frames, shadows, slot tables and tables
// of the images before it instead of allocating its own. Reset makes a
// recycled space and heap indistinguishable from new ones, and Build
// rewrites every table entry the image reads, so an image measures the
// same whatever ran on its memory before.
type hostMem struct {
	as    *mem.AddrSpace
	heaps []mem.TLSF
	n     int // heaps handed to the current image

	sites    []callSite
	sitePtrs []*callSite
	gates    []boundGate
	shared   []placedVar
}

var hostPool = sync.Pool{New: func() any { return new(hostMem) }}

// reset readies h for an image of spec that charges m: it returns the
// image's address space, and makes room for its heaps (one per
// compartment and the shared heap) before Build takes a pointer to
// any. A recycled space of another size is dropped.
func (h *hostMem) reset(spec ImageSpec, m *machine.Machine) *mem.AddrSpace {
	if n := len(spec.Comps) + 1; n > len(h.heaps) {
		h.heaps = append(h.heaps, make([]mem.TLSF, n-len(h.heaps))...)
	}
	h.n = 0
	if h.as == nil || h.as.Pages() != (spec.MemBytes+mem.PageSize-1)/mem.PageSize {
		h.as = mem.NewAddrSpace("flexos", spec.MemBytes, m)
	} else {
		h.as.Reset(m)
	}
	return h.as
}

// tlsf returns the image's next heap allocator, reset to serve arena.
func (h *hostMem) tlsf(arena mem.Arena, m *machine.Machine) *mem.TLSF {
	t := &h.heaps[h.n]
	h.n++
	t.Reset(arena, m)
	return t
}

// Release returns the image's address space, heaps and tables to the
// pool the next Build draws from, and hands each component state to its
// component's FreeState. The image must not be used afterwards: its
// memory and state are detached, so a retained image or context panics
// on use instead of reading another run's memory. Release is
// idempotent, and an image that is never released is simply collected.
func (img *Image) Release() {
	h := img.host
	if h == nil {
		return
	}
	img.host, img.AS, img.sharedHeap, img.restricted = nil, nil, nil, nil
	img.sites, img.gates, img.sharedVars = nil, nil, nil
	for _, c := range img.comps {
		for i, lib := range c.Libs {
			if lib.FreeState != nil && c.states[i] != nil {
				lib.FreeState(c.states[i])
			}
		}
		clear(c.states)
		c.Heap = nil
	}
	// Drop the tables' references to this image and its component
	// state, so a pooled hostMem keeps no released image alive.
	clear(h.sites)
	clear(h.sitePtrs)
	clear(h.gates)
	hostPool.Put(h)
}
