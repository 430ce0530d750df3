package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestComputeRatios(t *testing.T) {
	ratios, ref, err := computeRatios(map[string]float64{
		reference:            100,
		"BenchmarkQueryFast": 50,
		"BenchmarkQuerySlow": 250,
	}, "^BenchmarkQuery")
	if err != nil {
		t.Fatal(err)
	}
	if ref != 100 {
		t.Fatalf("reference = %v, want 100", ref)
	}
	if got := ratios["BenchmarkQueryFast"]; got != 0.5 {
		t.Errorf("fast ratio = %v, want 0.5", got)
	}
	if got := ratios["BenchmarkQuerySlow"]; got != 2.5 {
		t.Errorf("slow ratio = %v, want 2.5", got)
	}
	if _, ok := ratios[reference]; ok {
		t.Error("reference must not appear among the guarded ratios")
	}
}

func TestComputeRatiosMissingReference(t *testing.T) {
	_, _, err := computeRatios(map[string]float64{"BenchmarkQueryFast": 50}, "^BenchmarkQuery")
	if err == nil || !strings.Contains(err.Error(), reference) {
		t.Fatalf("want missing-reference error naming %s, got %v", reference, err)
	}
}

// A pattern that matches only the reference — the shape of a stale
// pattern after a benchmark rename — must be an error, not a silently
// empty (and therefore always-green) baseline.
func TestComputeRatiosZeroGuarded(t *testing.T) {
	_, _, err := computeRatios(map[string]float64{reference: 100}, "^BenchmarkQueryGone")
	if err == nil {
		t.Fatal("want error when the pattern guards no benchmarks, got nil")
	}
	if !strings.Contains(err.Error(), "nothing to guard") {
		t.Fatalf("error should say nothing is guarded, got: %v", err)
	}
}

// TestBaselineRoundTrip writes a baseline record the way -update does
// and reads back exactly the ratios guard mode compares against.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), recordID+".json")
	ratios := map[string]float64{
		"BenchmarkQueryA": 1.25,
		"BenchmarkQueryB": 0.5,
	}
	results := map[string]benchResult{
		"BenchmarkQueryA": {NsOp: 125},
		"BenchmarkQueryB": {NsOp: 50},
		reference:         {NsOp: 100},
	}
	if err := writeRecord(path, ratios, results, 100); err != nil {
		t.Fatal(err)
	}
	got, err := readRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ratios) {
		t.Fatalf("read %d entries, want %d", len(got), len(ratios))
	}
	for name, want := range ratios {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// TestRecordRoundTripMatchesBaseline writes the -json artifact record
// and the -update baseline from the same run, as a CI run does, and
// requires both to read back as the same ratios rounded to the
// record's five significant digits.
func TestRecordRoundTripMatchesBaseline(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, recordID+".json")
	recPath := filepath.Join(dir, "record.json")
	ratios := map[string]float64{
		"BenchmarkQueryA":          1.23456, // exercises the %.5g rounding
		"BenchmarkQuerySyntheticB": 0.5,
		"BenchmarkCtxCall/C":       2.8474e-5, // would round to 0 at four decimals
	}
	results := map[string]benchResult{
		"BenchmarkQueryA":          {NsOp: 123456, BOp: 4096, AllocsOp: 12},
		"BenchmarkQuerySyntheticB": {NsOp: 50000, BOp: 0, AllocsOp: 0},
		reference:                  {NsOp: 100000, BOp: 900, AllocsOp: 8},
	}
	if err := writeRecord(basePath, ratios, results, 100000); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(recPath, ratios, results, 100000); err != nil {
		t.Fatal(err)
	}
	baseline, err := readRecord(basePath)
	if err != nil {
		t.Fatal(err)
	}
	record, err := readRecord(recPath)
	if err != nil {
		t.Fatalf("fresh record rejected: %v", err)
	}
	if len(record) != len(baseline) || len(baseline) != len(ratios) {
		t.Fatalf("record has %d entries, baseline %d, want %d", len(record), len(baseline), len(ratios))
	}
	for name, want := range ratios {
		if baseline[name] != roundRatio(want) || record[name] != baseline[name] {
			t.Errorf("%s: record %v, baseline %v, want %v", name, record[name], baseline[name], roundRatio(want))
		}
	}
	if baseline["BenchmarkQueryA"] != 1.2346 || baseline["BenchmarkCtxCall/C"] != 2.8474e-5 {
		t.Errorf("rounded ratios = %v and %v, want 1.2346 and 2.8474e-05",
			baseline["BenchmarkQueryA"], baseline["BenchmarkCtxCall/C"])
	}
	// The informational -benchmem columns ride along in both files.
	for _, path := range []string{basePath, recPath} {
		rec := readRawRecord(t, path)
		for _, row := range rec.Benchmarks {
			want := results[row.Name]
			if row.NsOp != want.NsOp || row.BOp != want.BOp || row.AllocsOp != want.AllocsOp {
				t.Errorf("%s: row %+v, want %+v", path, row, want)
			}
		}
	}
}

// TestParseBenchOutput reads `go test -bench -benchmem` output: the CPU
// suffix is stripped, custom metrics between the columns are skipped,
// the fastest of repeated runs wins and brings its own B/op and
// allocs/op, and lines without ns/op are ignored.
func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
BenchmarkCalibration-2         	     240	   4900945 ns/op	  933786 B/op	    8294 allocs/op
BenchmarkQueryFig6Sequential-2 	       2	 886116212 ns/op	        80.00 configs	3048703140 B/op	 1166858 allocs/op
BenchmarkQueryFig6Sequential-2 	       2	 716000000 ns/op	        80.00 configs	3048700000 B/op	 1166850 allocs/op
BenchmarkQueryFig6Sequential-2 	       2	 901000000 ns/op	        80.00 configs	1 B/op	 1 allocs/op
BenchmarkNoTiming-2            	       1	        80.00 configs
BenchmarkQueryPlain            	     100	     12.5 ns/op
BenchmarkCtxCall/same-compartment-2 	10000000	     90.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkCtxCall/MPKGate       	 5000000	    160.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	flexos	10.057s
`
	got := map[string]benchResult{}
	parseBenchOutput(got, out)
	// A later process's slower run must not replace the fastest.
	parseBenchOutput(got, "BenchmarkQueryPlain 100 13.5 ns/op\n")
	want := map[string]benchResult{
		reference:                           {NsOp: 4900945, BOp: 933786, AllocsOp: 8294},
		"BenchmarkQueryFig6Sequential":      {NsOp: 716000000, BOp: 3048700000, AllocsOp: 1166850},
		"BenchmarkQueryPlain":               {NsOp: 12.5},
		"BenchmarkCtxCall/same-compartment": {NsOp: 90.5},
		"BenchmarkCtxCall/MPKGate":          {NsOp: 160.5},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

// TestBenchNames puts the reference first and lists every benchmark
// once, even when the pattern also matches the reference.
func TestBenchNames(t *testing.T) {
	got := benchNames("BenchmarkQueryA\nBenchmarkServeTraceB\n" + reference + "\nTestNotABenchmark\n")
	want := []string{reference, "BenchmarkQueryA", "BenchmarkServeTraceB"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("benchNames = %v, want %v", got, want)
	}
}

// TestReferenceIsStandardLibraryOnly finds the reference benchmark in
// the root package's tests and requires its file to import nothing
// from this module: a reference that ran repository code would move
// every guarded ratio whenever that code changed.
func TestReferenceIsStandardLibraryOnly(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Scope.Lookup(reference) == nil {
			continue
		}
		found = true
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "flexos" || strings.HasPrefix(p, "flexos/") {
				t.Errorf("%s: reference file imports repository package %q", path, p)
			}
		}
	}
	if !found {
		t.Fatalf("no root test file declares %s", reference)
	}
}

func readRawRecord(t *testing.T, path string) benchRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestReadRecordRejectsForeignRecords covers every record the guard
// must refuse to compare against: a missing file, malformed JSON, a
// foreign record ID, a foreign reference, and a record that pins no
// benchmark (which would pass every run).
func TestReadRecordRejectsForeignRecords(t *testing.T) {
	dir := t.TempDir()
	if _, err := readRecord(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing record must fail")
	}
	row := `[{"name":"BenchmarkQueryA","ratio":1.5}]`
	cases := map[string]string{
		"malformed":         `{"id":`,
		"foreign id":        `{"id":"BENCH_9999","reference":"` + reference + `","benchmarks":` + row + `}`,
		"foreign reference": `{"id":"` + recordID + `","reference":"BenchmarkOther","benchmarks":` + row + `}`,
		"no benchmarks":     `{"id":"` + recordID + `","reference":"` + reference + `","benchmarks":[]}`,
		"zero ratio":        `{"id":"` + recordID + `","reference":"` + reference + `","benchmarks":[{"name":"BenchmarkQueryA","ratio":0}]}`,
	}
	for name, data := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readRecord(path); err == nil {
			t.Errorf("%s: readRecord accepted the record", name)
		}
	}
}

// TestCheckedInBaselineParses reads the repository's own baseline
// record, the file guard mode compares against by default.
func TestCheckedInBaselineParses(t *testing.T) {
	got, err := readRecord(filepath.Join("..", "..", recordID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkQueryFig6Sequential", "BenchmarkQueryFig6Parallel",
		"BenchmarkCtxCall/SameCompartment", "BenchmarkCtxCall/MPKGate"} {
		if _, ok := got[name]; !ok {
			t.Errorf("baseline record does not pin %s: %v", name, got)
		}
	}
	for _, row := range readRawRecord(t, filepath.Join("..", "..", recordID+".json")).Benchmarks {
		// A simulated call allocates nothing; every other guarded
		// benchmark allocates, so a zero there is a lost field.
		zeroAlloc := strings.HasPrefix(row.Name, "BenchmarkCtxCall/")
		if row.NsOp <= 0 || (row.AllocsOp == 0) != zeroAlloc {
			t.Errorf("%s: baseline row lacks ns/op or has wrong allocs/op: %+v", row.Name, row)
		}
	}
}

func TestNormalizedTableListsEveryBenchmark(t *testing.T) {
	out := normalizedTable(
		map[string]float64{"BenchmarkQueryA": 1.2, "BenchmarkQueryNew": 0.9},
		map[string]float64{"BenchmarkQueryA": 1.0},
	)
	if !strings.Contains(out, "BenchmarkQueryA") || !strings.Contains(out, "BenchmarkQueryNew") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "baseline none") {
		t.Fatalf("unpinned benchmark should render baseline none:\n%s", out)
	}
}
