package store_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"flexos/internal/scenario"
	"flexos/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/segment.golden")

// goldenRecords are the records of testdata/segment.golden, in write
// order. Their keys carry every byte class the JSON string encoding
// treats specially (NUL and other control bytes, <>&, quotes,
// backslashes, multi-byte UTF-8, U+2028/U+2029) and their vectors the
// number forms it switches between: zero and negative zero, values
// either side of the 1e-6 and 1e21 exponent thresholds, subnormals,
// integer-valued floats and the largest unsigned counters. Keys are
// valid UTF-8: the encoder replaces invalid bytes with U+FFFD, so such
// a key would not reload under its own address.
var goldenRecords = []store.Record{
	{Key: "redis-get90/40\x00mech=intel-mpk;blocks=libredis,lwip,newlib,uksched;harden=", Metrics: scenario.Metrics{
		Throughput: 1086716.6702094278, P50us: 0.9018181818181819, P99us: 1.0931818181818183, MaxUs: 1.0931818181818183,
		PeakMemBytes: 39525, BootCycles: 14048, Cycles: 493965, Ops: 244}},
	{Key: "ns\x00a<b>&c\"d\\e/f", Metrics: scenario.Metrics{}},
	{Key: "ns\x00neg-zero-and-small", Metrics: scenario.Metrics{
		Throughput: math.Copysign(0, -1), P50us: 5e-7, P99us: 1e-6, MaxUs: 9.999999999999999e-7,
		Survival: 5e-324, Ops: -1}},
	{Key: "ns\x00large", Metrics: scenario.Metrics{
		Throughput: 1e21, P50us: math.MaxFloat64, P99us: 999999999999999900000, MaxUs: 1.2345678901234567e20,
		PeakMemBytes: math.MaxUint64, BootCycles: math.MaxUint64, Cycles: math.MaxUint64, Crossings: math.MaxUint64,
		Ops: math.MaxInt32}},
	{Key: "ns\x00integers", Metrics: scenario.Metrics{
		Throughput: 1e6, P50us: 42, P99us: 1e20, MaxUs: 1 << 53, Survival: 1,
		PeakMemBytes: 1, BootCycles: 10, Cycles: 1 << 32, Ops: math.MinInt32, Crossings: 7}},
	{Key: "ns\x00\x01\x1f\t\n\r\b\f\x7f", Metrics: scenario.Metrics{
		Throughput: 0.1, P50us: 0.2, P99us: 0.30000000000000004, MaxUs: 1.0 / 3, Survival: 0.5}},
	{Key: "ns\x00é中😀\u2028\u2029", Metrics: scenario.Metrics{
		Throughput: -1.5, P50us: -1e-7, P99us: -1e22, MaxUs: -123.25, Survival: 0.999999}},
	{Key: "a\x00b\x00c", Metrics: scenario.Metrics{
		Throughput: 1e-7, P50us: 1.5e-10, P99us: 1e100, MaxUs: 1.2345678901234567e-300, Survival: 2.2250738585072014e-308}},
	{Key: "redis-get90/40/combined@riscv\x00mech=intel-mpk;gate=full;share=dss;blocks=libredis,newlib,uksched|lwip;harden=lwip:[cfi,kasan,stackprotector,ubsan];libredis:[cfi];;aslr=full;profile=riscv", Metrics: scenario.Metrics{
		Throughput: 912942.2489196225, P50us: 1.0754545454545454, P99us: 1.2822727272727272, MaxUs: 17.5,
		PeakMemBytes: 1 << 20, BootCycles: 16224, Cycles: 587989, Ops: 244, Crossings: 1952, Survival: 0.6666666666666666}},
	{Key: "", Metrics: scenario.Metrics{Throughput: 123456789, Ops: 1}},
}

// writeGoldenSegment writes goldenRecords through a fresh store in dir
// and returns the segment's bytes.
func writeGoldenSegment(t *testing.T, dir string) []byte {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenRecords {
		s.Store(r.Key, r.Metrics)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSegmentGolden pins the bytes the store writes: the records of
// goldenRecords appended through Store must reproduce
// testdata/segment.golden exactly.
func TestSegmentGolden(t *testing.T) {
	got := writeGoldenSegment(t, t.TempDir())
	path := filepath.Join("testdata", "segment.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("store wrote different bytes:\n%s\nwant\n%s", got, want)
	}
}

// TestGoldenSegmentOpens opens the golden segment and checks that every
// record loads, bit for bit, in arrival order.
func TestGoldenSegmentOpens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "segment.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (store.Stats{Segments: 1, Loaded: len(goldenRecords)}) {
		t.Fatalf("stats: %+v", st)
	}
	recs, _, more := s.Page(0, len(goldenRecords))
	if more || len(recs) != len(goldenRecords) {
		t.Fatalf("page: %d records, more %v", len(recs), more)
	}
	for i, r := range recs {
		want := goldenRecords[i]
		if r.Key != want.Key || !store.BitsEqual(r.Metrics, want.Metrics) {
			t.Errorf("record %d: %q %+v, want %q %+v", i, r.Key, r.Metrics, want.Key, want.Metrics)
		}
	}
}

// recordLines counts the record lines of a segment as the store splits
// it: lines after the first, a trailing CR dropped, blank ones skipped.
func recordLines(data []byte) int {
	lines := bytes.Split(data, []byte("\n"))
	n := 0
	for i, l := range lines {
		if i > 0 && len(bytes.TrimSpace(bytes.TrimSuffix(l, []byte("\r")))) > 0 {
			n++
		}
	}
	return n
}

// TestDamageAtEveryByte is the store half of the crash property: a
// segment cut at any byte, or with any byte flipped, reopens without
// error; every key loads exactly the vector written under it or is
// absent, and every record line is either loaded or counted corrupt.
func TestDamageAtEveryByte(t *testing.T) {
	clean := writeGoldenSegment(t, t.TempDir())
	want := make(map[string]scenario.Metrics, len(goldenRecords))
	for _, r := range goldenRecords {
		want[r.Key] = r.Metrics
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-000001.jsonl")
	check := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenReadOnly(dir)
		if err != nil {
			t.Fatalf("%s: open: %v", what, err)
		}
		st := s.Stats()
		switch {
		case st.QuarantinedFiles == 1:
			if st.Segments != 0 || st.Loaded != 0 || st.CorruptRecords != 0 {
				t.Fatalf("%s: quarantined segment loaded records: %+v", what, st)
			}
		case st.Segments != 1 || st.Loaded+st.CorruptRecords != recordLines(data):
			t.Fatalf("%s: stats %+v do not account for %d record lines", what, st, recordLines(data))
		}
		for _, k := range s.Keys() {
			m, _ := s.Load(k)
			if w, ok := want[k]; !ok || !store.BitsEqual(m, w) {
				t.Fatalf("%s: key %q loaded %+v, wrote %+v (written: %v)", what, k, m, w, ok)
			}
		}
	}
	for n := 0; n <= len(clean); n++ {
		check(fmt.Sprintf("cut at %d", n), clean[:n])
	}
	damaged := make([]byte, len(clean))
	for i := range clean {
		for _, mask := range []byte{0x01, 0x20, 0x80} {
			copy(damaged, clean)
			damaged[i] ^= mask
			check(fmt.Sprintf("byte %d ^ %#x", i, mask), damaged)
		}
	}
}
