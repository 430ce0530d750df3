package scenario

import (
	"bytes"
	"fmt"

	"flexos/internal/core"
	"flexos/internal/mem"
)

// Attacking returns a copy of s whose first span opens with the
// application probing the last 64 bytes of the heap of victim's
// compartment and overwriting them: a protection fault where an
// isolation boundary separates the two, a write that outlives the run
// where none does. A run never allocates that deep into a heap, so the
// probe fails the measurement if it reads anything but zeros: bytes an
// earlier image left behind.
func Attacking(s *Scenario, victim string) *Scenario {
	c := *s
	span := s.drv.span
	c.drv.span = func(ctx *core.Ctx, i, n int) error {
		if i == 0 {
			if comp, ok := ctx.Image().Comp(victim); ok {
				addr := comp.HeapBase + uintptr(ctx.Image().Spec.HeapPages*mem.PageSize) - 64
				var probe [64]byte
				if err := ctx.Read(addr, probe[:]); err != nil {
					return err
				}
				if probe != [64]byte{} {
					return fmt.Errorf("attack read stale bytes %x", probe[:8])
				}
				if err := ctx.Write(addr, bytes.Repeat([]byte{0xa5}, len(probe))); err != nil {
					return err
				}
			}
		}
		return span(ctx, i, n)
	}
	return &c
}
