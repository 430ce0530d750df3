package figures_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/figures"
)

// The goldens print throughput to 0.1k, too coarse to catch a change in
// the low bits of a measurement, and nothing else pins Figures 9 and 10.
// These digests fold the exact float64 bits, cycles and crossings of
// every value the -app spaces and the two figures produce, so any
// change to how an application image is driven or measured fails here.
// The keyed/* digests cover the mechanisms the -app spaces never build,
// each over its own CrossAppSpace.
var bitPins = map[string]uint64{
	"app/redis":            0x478eb9bae1fda1f3,
	"app/nginx":            0xe9028981d6665fcf,
	"app/cross":            0x12b1031be67df9d8,
	"app/cross/exhaustive": 0xdbae479fbba4dde4,
	"fig9/17":              0xb47bf7d1b94aa0d1,
	"fig10/37":             0x1222b11fd80b8db5,
	"keyed/cheri":          0xfd484fa0af648ca5,
	"keyed/intel-sgx":      0xe96735cf78f6a41d,
}

// scenarioPins digest every shipped library scenario at scenarioPinOps
// operations over its Figure 6 space: the metric vector, crossings and
// the call count of every cross-compartment gate of each run. They pin
// the paths the -app spaces never drive (SET, pipelining, accept,
// multi-stream receive, batched transactions), so a changed charge on
// any of them fails here.
var scenarioPins = map[string]uint64{
	"redis-get100":    0x4af2c705ae5ece84,
	"redis-get90":     0x70efa98cd3553387,
	"redis-get50":     0xf6d552f36305a473,
	"redis-pipe8":     0x5795fb780d8aa9cf,
	"nginx-static":    0xc472fd3282d85532,
	"nginx-keep75":    0x78966513107b4771,
	"nginx-keepalive": 0x4a9c58afdd12c5c8,
	"iperf-stream1":   0x40ea74d31d9bf409,
	"iperf-stream4":   0x060728bb22557f5a,
	"iperf-stream8":   0xb116a208879c1990,
	"sqlite-batch1":   0x6af5c6f3ed45d3f5,
	"sqlite-batch8":   0x0f94fb0a5c41d60c,
	"sqlite-batch32":  0x0db1cfbf6d3890c7,
}

// scenarioPinOps is small enough that the thirteen spaces run in a few
// seconds and large enough that every mix runs each of its operations.
const scenarioPinOps = 24

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

// resultDigest folds every measurement of an exploration result.
func resultDigest(res *flexos.ExploreResult) *bitDigest {
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
	return d
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
			checkBits(t, name, resultDigest(res))
		})
	}

	for _, mech := range []string{"cheri", "intel-sgx"} {
		name := "keyed/" + mech
		t.Run(name, func(t *testing.T) {
			measure := func(c *flexos.ExploreConfig) (float64, error) {
				sc, _ := flexos.ScenarioByName("nginx-keepalive")
				for _, comp := range c.Components() {
					if comp == flexos.LibRedis {
						sc, _ = flexos.ScenarioByName("redis-get100")
					}
				}
				m, err := sc.WithOps(37).Run(c.Spec(flexos.TCBLibs()))
				return m.Throughput, err
			}
			cfgs := flexos.CrossAppSpace([]string{mech}, flexos.RedisComponents(), flexos.NginxComponents())
			res, err := flexos.NewQuery(cfgs).MeasureScalar(measure).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			checkBits(t, name, resultDigest(res))
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

// sqliteQuad is the Figure 6 shape of an SQLite image: the application,
// the filesystem switch, the time subsystem and the C library each take
// one block; the scheduler and ramfs stay with the TCB in the first
// compartment.
var sqliteQuad = [4]string{flexos.LibSQLite, flexos.LibVFS, flexos.LibTime, flexos.LibC}

func TestScenarioBitsPinned(t *testing.T) {
	for _, sc := range flexos.Scenarios() {
		name := "scenario/" + sc.Name()
		t.Run(name, func(t *testing.T) {
			quad, ok := sc.Quad()
			tcb := flexos.TCBLibs()
			if !ok {
				quad = sqliteQuad
				tcb = append(tcb, flexos.LibSched, flexos.LibRamfs)
			}
			var report flexos.Report
			run := sc.WithOps(scenarioPinOps).Observe(func(img *flexos.Image) { report = img.Report() })
			d := newBitDigest()
			for _, c := range flexos.Fig6Space(quad) {
				d.h.Write([]byte(c.Key()))
				m, err := run.Run(c.Spec(tcb))
				if err != nil {
					d.h.Write([]byte(err.Error()))
					continue
				}
				for _, f := range []float64{m.Throughput, m.P50us, m.P99us, m.MaxUs} {
					d.f64(f)
				}
				for _, u := range []uint64{m.PeakMemBytes, m.BootCycles, m.Cycles, uint64(m.Ops), m.Crossings} {
					d.u64(u)
				}
				for _, g := range report.Gates {
					d.h.Write([]byte(g.From + ">" + g.To))
					d.u64(g.Calls)
				}
			}
			if got, want := d.h.Sum64(), scenarioPins[sc.Name()]; got != want {
				t.Errorf("%s: bit digest %#x, want %#x", name, got, want)
			}
		})
	}
}
