package figures_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"flexos/internal/cli"
	"flexos/internal/figures"
)

// The goldens print throughput to 0.1k, too coarse to catch a change in
// the low bits of a measurement, and nothing else pins Figures 9 and 10.
// These digests fold the exact float64 bits, cycles and crossings of
// every value the -app spaces and the two figures produce, so any
// change to how an application image is driven or measured fails here.
var bitPins = map[string]uint64{
	"app/redis":            0x478eb9bae1fda1f3,
	"app/nginx":            0xe9028981d6665fcf,
	"app/cross":            0x12b1031be67df9d8,
	"app/cross/exhaustive": 0xdbae479fbba4dde4,
	"fig9/17":              0xb47bf7d1b94aa0d1,
	"fig10/37":             0x1222b11fd80b8db5,
}

type bitDigest struct{ h hash.Hash64 }

func newBitDigest() *bitDigest { return &bitDigest{fnv.New64a()} }

func (d *bitDigest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *bitDigest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *bitDigest) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func checkBits(t *testing.T, name string, d *bitDigest) {
	t.Helper()
	if got, want := d.h.Sum64(), bitPins[name]; got != want {
		t.Errorf("%s: bit digest %#x, want %#x", name, got, want)
	}
}

func TestMeasuredBitsPinned(t *testing.T) {
	for _, r := range []cli.Request{
		{App: "redis", Requests: 37},
		{App: "nginx", Requests: 37},
		{App: "cross", Requests: 37},
		{App: "cross", Requests: 37, Exhaustive: true},
	} {
		name := "app/" + r.App
		if r.Exhaustive {
			name += "/exhaustive"
		}
		t.Run(name, func(t *testing.T) {
			q, _, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := q.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			d := newBitDigest()
			d.u64(uint64(len(res.Measurements)))
			for _, m := range res.Measurements {
				d.u64(uint64(m.Config.ID))
				d.flag(m.Evaluated)
				d.flag(m.Pruned)
				d.f64(m.Perf)
				mm := m.Metrics
				for _, f := range []float64{mm.Throughput, mm.P50us, mm.P99us, mm.MaxUs, mm.Survival} {
					d.f64(f)
				}
				for _, u := range []uint64{mm.PeakMemBytes, mm.BootCycles, mm.Cycles, uint64(mm.Ops), mm.Crossings} {
					d.u64(u)
				}
			}
			for _, i := range res.Safest {
				d.u64(uint64(i))
			}
			checkBits(t, name, d)
		})
	}

	t.Run("fig9/17", func(t *testing.T) {
		rows, err := figures.Fig9(17)
		if err != nil {
			t.Fatal(err)
		}
		d := newBitDigest()
		for _, r := range rows {
			d.u64(uint64(r.BufSize))
			d.h.Write([]byte(r.System))
			d.f64(r.Gbps)
		}
		checkBits(t, "fig9/17", d)
	})

	t.Run("fig10/37", func(t *testing.T) {
		rows, err := figures.Fig10(37)
		if err != nil {
			t.Fatal(err)
		}
		d := newBitDigest()
		for _, r := range rows {
			d.h.Write([]byte(r.System + "/" + r.Isolation))
			d.f64(r.Seconds)
			d.flag(r.Measured)
		}
		checkBits(t, "fig10/37", d)
	})
}
