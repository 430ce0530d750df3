package flexos_test

import (
	"testing"

	"flexos"
	"flexos/internal/scenario"
	"flexos/internal/store"
)

// benchStoreRecords sizes BenchmarkStoreOpen's segment like a warm
// daemon's store over a day's request mix: about 1,500 records, 700 KB
// in one segment.
const benchStoreRecords = 1500

// BenchmarkStoreOpen measures the result store's warm start: one
// OpenReadOnly of a single segment holding benchStoreRecords
// measurements, keyed as the engine keys them (a namespace NUL-joined
// with a configuration's canonical key) and carrying full-precision
// metric vectors. Open reads, checks and indexes every record, so one
// iteration is the store layer's whole cost of reopening a directory.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	namespaces := []string{"redis-get90/40", "nginx-keepalive/200", "redis-get90/40/combined@riscv"}
	for i, c := range flexos.SynthSpace(7, benchStoreRecords) {
		s.Store(flexos.MemoKey(namespaces[i%len(namespaces)], c), benchStoreVector(uint64(i)))
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := store.OpenReadOnly(dir)
		if err != nil {
			b.Fatal(err)
		}
		if st := r.Stats(); st.Loaded != benchStoreRecords || st.CorruptRecords != 0 {
			b.Fatalf("reopened store: %+v", st)
		}
	}
	b.ReportMetric(benchStoreRecords, "records")
}

// benchStoreVector derives a measurement-shaped vector from i: cycle
// counts from a splitmix64 step, rates and latencies divided out of
// them at the simulated 2.2 GHz clock, so the floats carry the full
// precision real measurements do.
func benchStoreVector(i uint64) scenario.Metrics {
	z := i*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	cycles := 1_000_000 + z%50_000_000
	ops := 40 + int(z>>40)%160
	m := scenario.Metrics{
		Throughput:   float64(ops) * 2.2e9 / float64(cycles),
		P50us:        float64(cycles/uint64(ops)) / 2200,
		P99us:        float64(cycles/uint64(ops)+z>>52) / 2200,
		MaxUs:        float64(cycles/uint64(ops)+z>>48) / 2200,
		PeakMemBytes: 1<<20 + z>>40,
		BootCycles:   200_000 + z>>44,
		Cycles:       cycles,
		Ops:          ops,
		Crossings:    z >> 50,
	}
	if i%3 == 2 {
		m.Survival = float64(z>>11) / (1 << 53)
	}
	return m
}
