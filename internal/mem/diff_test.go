package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"flexos/internal/machine"
)

// The differential test drives an AddrSpace and a deliberately naive
// reference model with the same seeded operation sequence and compares
// every observable after every step: bytes read, errors (including
// every *Fault field), Stats(), the machine's cycle clock and the
// shadow flag. The model is a flat byte array with a flat KASan shadow
// and spells out the access-check order, fault values and cycle
// charges the simulator's metrics depend on, so any change to how the
// space stores its bytes must leave all of them untouched.

// refSpace is the reference model of an AddrSpace.
type refSpace struct {
	name   string
	data   []byte
	keys   []Key
	shadow []byte // one byte per 8-byte granule; nil until enabled
	costs  machine.CostModel
	cycles uint64
	stats  Stats
}

func newRefSpace(name string, pages int, costs machine.CostModel) *refSpace {
	return &refSpace{
		name:  name,
		data:  make([]byte, pages*PageSize),
		keys:  make([]Key, pages),
		costs: costs,
	}
}

func (r *refSpace) fault(f *Fault) error {
	r.stats.Faults++
	r.cycles += r.costs.PageFault
	return f
}

func (r *refSpace) setKeyRange(addr, length uintptr, k Key) error {
	if k >= NumKeys {
		return fmt.Errorf("mem: key %d out of range", k)
	}
	if length == 0 {
		return nil
	}
	end := addr + length
	if end > uintptr(len(r.data)) || end < addr {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Len: int(length), Space: r.name}
	}
	for p := addr / PageSize; p <= (end-1)/PageSize; p++ {
		r.keys[p] = k
	}
	return nil
}

// check is the access check: bounds, then every page's key in address
// order, then (when enabled) every shadow granule in address order.
func (r *refSpace) check(pkru PKRU, addr uintptr, n int, write bool) error {
	end := addr + uintptr(n)
	if n < 0 || end > uintptr(len(r.data)) || end < addr {
		return r.fault(&Fault{Kind: FaultUnmapped, Addr: addr, Len: n, Write: write, PKRU: pkru, Space: r.name})
	}
	if n == 0 {
		return nil
	}
	for p := addr / PageSize; p <= (end-1)/PageSize; p++ {
		k := r.keys[p]
		ok := pkru.CanRead(k)
		if write {
			ok = pkru.CanWrite(k)
		}
		if !ok {
			return r.fault(&Fault{Kind: FaultKeyViolation, Addr: p * PageSize, Len: n, Write: write, Key: k, PKRU: pkru, Space: r.name})
		}
	}
	if r.shadow != nil {
		for g := addr / shadowScale; g <= (end-1)/shadowScale && g < uintptr(len(r.shadow)); g++ {
			if r.shadow[g] != poisonNone {
				return r.fault(&Fault{Kind: FaultKASanRedzone, Addr: g * shadowScale, Len: n, Write: write, PKRU: pkru, Space: r.name})
			}
		}
	}
	return nil
}

func (r *refSpace) read(pkru PKRU, addr uintptr, n int) ([]byte, error) {
	if err := r.check(pkru, addr, n, false); err != nil {
		return nil, err
	}
	out := append([]byte(nil), r.data[addr:addr+uintptr(n)]...)
	r.stats.Reads++
	r.stats.BytesRead += uint64(n)
	r.cycles += r.costs.CopyCost(n)
	return out, nil
}

func (r *refSpace) write(pkru PKRU, addr uintptr, src []byte) error {
	if err := r.check(pkru, addr, len(src), true); err != nil {
		return err
	}
	copy(r.data[addr:], src)
	r.stats.Writes++
	r.stats.BytesWritten += uint64(len(src))
	r.cycles += r.costs.CopyCost(len(src))
	return nil
}

func (r *refSpace) memmove(pkru PKRU, dst, src uintptr, n int) error {
	if err := r.check(pkru, src, n, false); err != nil {
		return err
	}
	if err := r.check(pkru, dst, n, true); err != nil {
		return err
	}
	copy(r.data[dst:dst+uintptr(n)], r.data[src:src+uintptr(n)])
	r.stats.Reads++
	r.stats.Writes++
	r.stats.BytesRead += uint64(n)
	r.stats.BytesWritten += uint64(n)
	r.cycles += r.costs.CopyCost(n)
	return nil
}

func (r *refSpace) enableShadow() {
	if r.shadow == nil {
		r.shadow = make([]byte, len(r.data)/shadowScale)
	}
}

// poison covers only whole granules inside [addr, addr+n); unpoison
// covers every granule the range touches.
func (r *refSpace) poison(addr uintptr, n int, freed bool) {
	if r.shadow == nil || n <= 0 {
		return
	}
	v := poisonRedzone
	if freed {
		v = poisonFreed
	}
	for g := (addr + shadowScale - 1) / shadowScale; g < (addr+uintptr(n))/shadowScale && g < uintptr(len(r.shadow)); g++ {
		r.shadow[g] = v
	}
}

func (r *refSpace) unpoison(addr uintptr, n int) {
	if r.shadow == nil || n <= 0 {
		return
	}
	for g := addr / shadowScale; g < (addr+uintptr(n)+shadowScale-1)/shadowScale && g < uintptr(len(r.shadow)); g++ {
		r.shadow[g] = poisonNone
	}
}

// diffGen draws operands biased toward the interesting edges: page
// boundaries, the end of the space, and wrap-around.
type diffGen struct {
	rng  *rand.Rand
	size int
}

func (g diffGen) addr() uintptr {
	size := uintptr(g.size)
	switch r := g.rng.IntN(20); {
	case r < 13:
		return uintptr(g.rng.IntN(g.size))
	case r < 16: // straddling a page boundary
		p := uintptr(g.rng.IntN(g.size/PageSize+1)) * PageSize
		return p + uintptr(g.rng.IntN(33)) - 16
	case r < 18: // at or just past the end
		return size + uintptr(g.rng.IntN(41)) - 32
	case r < 19: // beyond the end
		return size + uintptr(g.rng.IntN(g.size))
	default: // wraps around the address space
		return ^uintptr(0) - uintptr(g.rng.IntN(64))
	}
}

func (g diffGen) length() int {
	switch r := g.rng.IntN(10); {
	case r < 6:
		return g.rng.IntN(65)
	case r < 9:
		return g.rng.IntN(2*PageSize + 128)
	default:
		return g.rng.IntN(8)
	}
}

func (g diffGen) key() Key {
	if g.rng.IntN(25) == 0 {
		return NumKeys // rejected by SetKeyRange
	}
	return []Key{KeyTCB, 1, 2, KeyShared}[g.rng.IntN(4)]
}

func (g diffGen) pkru() PKRU {
	if g.rng.IntN(2) == 0 {
		return PKRUAllowAll
	}
	return []PKRU{
		DomainPKRU(1, KeyShared),
		DomainPKRU(2, KeyShared),
		DomainPKRU(KeyTCB),
		PKRUDenyAll().Allow(KeyTCB).AllowRead(1),
		PKRUDenyAll(),
	}[g.rng.IntN(5)]
}

func (g diffGen) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(g.rng.Uint32())
	}
	return b
}

// TestAddrSpaceMatchesFlatReference runs seeded random operation
// sequences against an AddrSpace and the flat reference model.
func TestAddrSpaceMatchesFlatReference(t *testing.T) {
	const (
		seeds = 48
		steps = 1500
	)
	for seed := uint64(1); seed <= seeds; seed++ {
		pages := 1 + int(seed%6)
		t.Run(fmt.Sprintf("seed%d-pages%d", seed, pages), func(t *testing.T) {
			runDiff(t, seed, pages, steps)
		})
	}
}

func runDiff(t *testing.T, seed uint64, pages, steps int) {
	t.Helper()
	mach := machine.New(machine.CostModel{})
	as := NewAddrSpace("diff", pages*PageSize, mach)
	ref := newRefSpace("diff", pages, mach.Costs)
	g := diffGen{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)), size: pages * PageSize}
	if as.Size() != len(ref.data) || as.Pages() != pages {
		t.Fatalf("size %d / %d pages, want %d / %d", as.Size(), as.Pages(), len(ref.data), pages)
	}
	// Half the seeds run with the shadow on from the start, the other
	// half turn it on somewhere in the sequence.
	if seed%2 == 0 {
		as.EnableShadow()
		ref.enableShadow()
	}

	for step := 0; step < steps; step++ {
		var (
			op             string
			gotErr, refErr error
			got, want      []byte
		)
		pkru := g.pkru()
		switch r := g.rng.IntN(100); {
		case r < 6:
			addr, n, k := g.addr(), uintptr(g.length()), g.key()
			op = fmt.Sprintf("SetKeyRange(%#x, %d, %d)", addr, n, k)
			gotErr, refErr = as.SetKeyRange(addr, n, k), ref.setKeyRange(addr, n, k)
		case r < 22:
			addr, n := g.addr(), g.length()
			op = fmt.Sprintf("Read(%v, %#x, %d)", pkru, addr, n)
			buf := g.bytes(n) // a dirty buffer: Read must overwrite all of it
			if gotErr = as.Read(pkru, addr, buf); gotErr == nil {
				got = buf
			}
			want, refErr = ref.read(pkru, addr, n)
		case r < 40:
			addr, src := g.addr(), g.bytes(g.length())
			op = fmt.Sprintf("Write(%v, %#x, %d)", pkru, addr, len(src))
			gotErr, refErr = as.Write(pkru, addr, src), ref.write(pkru, addr, src)
		case r < 47:
			addr := g.addr()
			op = fmt.Sprintf("ReadUint64(%v, %#x)", pkru, addr)
			var v uint64
			if v, gotErr = as.ReadUint64(pkru, addr); gotErr == nil {
				got = binary.LittleEndian.AppendUint64(nil, v)
			}
			want, refErr = ref.read(pkru, addr, 8)
		case r < 51:
			addr, v := g.addr(), g.rng.Uint64()
			op = fmt.Sprintf("WriteUint64(%v, %#x)", pkru, addr)
			gotErr, refErr = as.WriteUint64(pkru, addr, v), ref.write(pkru, addr, binary.LittleEndian.AppendUint64(nil, v))
		case r < 56:
			addr, v := g.addr(), byte(g.rng.Uint32())
			op = fmt.Sprintf("StoreByte(%v, %#x)", pkru, addr)
			gotErr, refErr = as.StoreByte(pkru, addr, v), ref.write(pkru, addr, []byte{v})
		case r < 60:
			addr := g.addr()
			op = fmt.Sprintf("LoadByte(%v, %#x)", pkru, addr)
			var v byte
			if v, gotErr = as.LoadByte(pkru, addr); gotErr == nil {
				got = []byte{v}
			}
			want, refErr = ref.read(pkru, addr, 1)
		case r < 76:
			dst, src, n := g.addr(), g.addr(), g.length()
			if g.rng.IntN(3) != 0 {
				// In range and overlapping, in either direction, mostly
				// across a page boundary.
				n = 1 + g.rng.IntN(min(2*PageSize, g.size-1))
				src = uintptr(g.rng.IntN(g.size - n + 1))
				dst = min(uintptr(g.size-n), uintptr(max(0, int(src)+g.rng.IntN(2*n+1)-n)))
				if g.rng.IntN(2) == 0 {
					pkru = PKRUAllowAll
				}
			}
			if g.rng.IntN(30) == 0 {
				n = -1 - g.rng.IntN(8)
			}
			op = fmt.Sprintf("Memmove(%v, %#x, %#x, %d)", pkru, dst, src, n)
			gotErr, refErr = as.Memmove(pkru, dst, src, n), ref.memmove(pkru, dst, src, n)
		case r < 88:
			addr, n, freed := g.addr(), g.length()-4, g.rng.IntN(2) == 0
			op = fmt.Sprintf("Poison(%#x, %d, %v)", addr, n, freed)
			as.Poison(addr, n, freed)
			ref.poison(addr, n, freed)
		case r < 99:
			addr, n := g.addr(), g.length()-4
			op = fmt.Sprintf("Unpoison(%#x, %d)", addr, n)
			as.Unpoison(addr, n)
			ref.unpoison(addr, n)
		default:
			op = "EnableShadow()"
			as.EnableShadow()
			ref.enableShadow()
		}

		if !reflect.DeepEqual(gotErr, refErr) {
			t.Fatalf("step %d %s: error %#v, reference %#v", step, op, gotErr, refErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d %s: read %x, reference %x", step, op, got, want)
		}
		if as.Stats() != ref.stats {
			t.Fatalf("step %d %s: stats %+v, reference %+v", step, op, as.Stats(), ref.stats)
		}
		if c := mach.Clock.Cycles(); c != ref.cycles {
			t.Fatalf("step %d %s: clock %d cycles, reference %d", step, op, c, ref.cycles)
		}
		if as.ShadowEnabled() != (ref.shadow != nil) {
			t.Fatalf("step %d %s: ShadowEnabled %v, reference %v", step, op, as.ShadowEnabled(), ref.shadow != nil)
		}
	}

	// Final sweep: every key and shadow granule, then every byte.
	for p := 0; p < pages; p++ {
		if k := as.KeyAt(uintptr(p * PageSize)); k != ref.keys[p] {
			t.Fatalf("page %d key %d, reference %d", p, k, ref.keys[p])
		}
	}
	for gr := range ref.shadow {
		var b [1]byte
		err := as.Read(PKRUAllowAll, uintptr(gr*shadowScale), b[:])
		if poisoned := ref.shadow[gr] != poisonNone; poisoned != (err != nil && err.(*Fault).Kind == FaultKASanRedzone) {
			t.Fatalf("granule %d: poisoned %v in reference, read error %v", gr, poisoned, err)
		}
	}
	as.Unpoison(0, len(ref.data))
	buf := make([]byte, len(ref.data))
	if err := as.Read(PKRUAllowAll, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, ref.data) {
		for i := range buf {
			if buf[i] != ref.data[i] {
				t.Fatalf("byte %#x is %#x, reference %#x", i, buf[i], ref.data[i])
			}
		}
	}
}
