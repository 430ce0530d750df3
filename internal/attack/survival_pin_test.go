package attack_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"flexos/internal/attack"
	"flexos/internal/explore/exploretest"
)

// survivalPins digest the exact float64 bits of every scenario's
// survival over the attack entries of the shipped spaces (x86 and
// riscv, swept and pinned ASLR), visited in name order. Nothing else
// pins survival bits: the figure pins cover application measurements,
// and the monotonicity oracles compare scores with each other. A
// changed factor, surface term or product order that moves any score
// fails here.
var survivalPins = map[string]uint64{
	"addr-probe": 0x1fcc89c071f9a43d,
	"combined":   0x724b39f0be84abb9,
	"comp-leak":  0x38a2dd0123f426e5,
	"rop-chain":  0x4e459dfa542d9739,
}

func TestSurvivalBitsPinned(t *testing.T) {
	shipped := exploretest.ShippedSpaces()
	var names []string
	for name := range shipped {
		if strings.HasPrefix(name, "attack") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) != 4 {
		t.Fatalf("attack entries %v, want swept and pinned on two profiles", names)
	}
	for _, s := range attack.All() {
		h := fnv.New64a()
		var b [8]byte
		for _, name := range names {
			for _, c := range shipped[name] {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.Survival(c)))
				h.Write(b[:])
			}
		}
		if got, want := h.Sum64(), survivalPins[s.Name()]; got != want {
			t.Errorf("%s: survival digest %#016x, want %#016x", s.Name(), got, want)
		}
	}
}
