package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// pairedRuns builds n rounds in which every named benchmark takes the
// same time and allocations at base and HEAD; tests then perturb the
// HEAD side.
func pairedRuns(n int, names ...string) (base, head map[string][]benchResult) {
	base, head = map[string][]benchResult{}, map[string][]benchResult{}
	for k, name := range names {
		for i := 0; i < n; i++ {
			// Rounds differ from one another, as host state does, but
			// the two sides of a pair agree.
			r := benchResult{NsOp: float64(1000*(k+1) + 37*i), BOp: 4096, AllocsOp: 1000}
			base[name] = append(base[name], r)
			head[name] = append(head[name], r)
		}
	}
	return base, head
}

func mustCompare(t *testing.T, base, head map[string][]benchResult) ([]benchRow, []string) {
	t.Helper()
	rows, failures, err := compare(base, head, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	return rows, failures
}

func TestCompareIdenticalSidesPass(t *testing.T) {
	base, head := pairedRuns(10, "BenchmarkQueryA", "BenchmarkCtxCall/MPKGate")
	rows, failures := mustCompare(t, base, head)
	if len(failures) != 0 {
		t.Fatalf("identical sides failed: %v", failures)
	}
	for _, row := range rows {
		if row.PairedRatio != 1 {
			t.Errorf("%s: paired ratio %v, want 1", row.Name, row.PairedRatio)
		}
	}
}

// A 1.3× slowdown in 9 of 10 rounds fails, and only the slowed
// benchmark is named.
func TestCompareSlowdownNamesOnlyThatBenchmark(t *testing.T) {
	base, head := pairedRuns(10, "BenchmarkQueryA", "BenchmarkQueryB", "BenchmarkServeTraceC")
	for i := 1; i < 10; i++ {
		head["BenchmarkQueryB"][i].NsOp *= 1.3
	}
	_, failures := mustCompare(t, base, head)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "BenchmarkQueryB:") {
		t.Fatalf("failures = %v, want one for BenchmarkQueryB", failures)
	}
}

// One slow pair is host noise: the median over rounds ignores it.
func TestCompareSingleOutlierPasses(t *testing.T) {
	base, head := pairedRuns(10, "BenchmarkQueryA")
	head["BenchmarkQueryA"][4].NsOp *= 2
	if _, failures := mustCompare(t, base, head); len(failures) != 0 {
		t.Fatalf("one 2x outlier failed the gate: %v", failures)
	}
}

// allocs/op gets a fixed 5%: +3% passes and +6% fails.
func TestCompareAllocsOp(t *testing.T) {
	for _, tc := range []struct {
		allocs int64
		fail   bool
	}{{1030, false}, {1060, true}} {
		base, head := pairedRuns(10, "BenchmarkQueryA")
		for i := range head["BenchmarkQueryA"] {
			head["BenchmarkQueryA"][i].AllocsOp = tc.allocs
		}
		_, failures := mustCompare(t, base, head)
		if got := len(failures) > 0; got != tc.fail || (got && !strings.Contains(failures[0], "allocs/op")) {
			t.Errorf("allocs/op 1000 -> %d: failures %v, want fail=%v", tc.allocs, failures, tc.fail)
		}
	}
}

// A benchmark present at base and missing at HEAD fails; one new at
// HEAD is reported in the table but not gated, even when it is slow.
func TestCompareDisappearedAndNew(t *testing.T) {
	base, head := pairedRuns(3, "BenchmarkQueryA", "BenchmarkQueryGone")
	delete(head, "BenchmarkQueryGone")
	head["BenchmarkQueryNew"] = []benchResult{{NsOp: 1e9, AllocsOp: 1e6}}
	rows, failures := mustCompare(t, base, head)
	if len(failures) != 1 || failures[0] != "BenchmarkQueryGone: benchmark disappeared" {
		t.Fatalf("failures = %v, want only the disappeared benchmark", failures)
	}
	out := table(rows)
	for _, want := range []string{"BenchmarkQueryA", "BenchmarkQueryGone", "missing at head", "BenchmarkQueryNew", "not gated"} {
		if !strings.Contains(out, want) {
			t.Errorf("paired table lacks %q:\n%s", want, out)
		}
	}
}

// A pattern that matched nothing at base — the shape of a stale pattern
// after a rename — is an error, not an always-green gate.
func TestCompareNothingAtBase(t *testing.T) {
	_, head := pairedRuns(3, "BenchmarkQueryNew")
	if _, _, err := compare(nil, head, 0.20); err == nil || !strings.Contains(err.Error(), "nothing to guard") {
		t.Fatalf("want a nothing-to-guard error, got %v", err)
	}
}

// TestRecordRoundTrip writes the -json record and reads back both
// revisions and every row, including the one-sided rows.
func TestRecordRoundTrip(t *testing.T) {
	base, head := pairedRuns(4, "BenchmarkQueryA", "BenchmarkCtxCall/SameCompartment", "BenchmarkQueryGone")
	delete(head, "BenchmarkQueryGone")
	head["BenchmarkQueryNew"] = []benchResult{{NsOp: 5, BOp: 1, AllocsOp: 1}}
	rows, _ := mustCompare(t, base, head)
	if len(rows) != 4 {
		t.Fatalf("paired table has %d rows, want 4", len(rows))
	}
	want := benchRecord{Base: strings.Repeat("a", 40), Head: strings.Repeat("b", 40), Rounds: 4, Benchmarks: rows}
	path := filepath.Join(t.TempDir(), "record.json")
	if err := writeRecord(path, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchRecord
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestParseBenchOutput reads `go test -bench -benchmem` output: the CPU
// suffix is stripped, custom metrics between the columns are skipped,
// each row brings its own B/op and allocs/op, and lines without ns/op
// are ignored.
func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
BenchmarkQueryFig6Sequential-2 	       2	 716000000 ns/op	        80.00 configs	3048700000 B/op	 1166850 allocs/op
BenchmarkNoTiming-2            	       1	        80.00 configs
BenchmarkQueryPlain            	     100	     12.5 ns/op
BenchmarkCtxCall/same-compartment-2 	10000000	     90.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkCtxCall/MPKGate       	 5000000	    160.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	flexos	10.057s
`
	want := map[string]benchResult{
		"BenchmarkQueryFig6Sequential":      {NsOp: 716000000, BOp: 3048700000, AllocsOp: 1166850},
		"BenchmarkQueryPlain":               {NsOp: 12.5},
		"BenchmarkCtxCall/same-compartment": {NsOp: 90.5},
		"BenchmarkCtxCall/MPKGate":          {NsOp: 160.5},
	}
	if got := parseBenchOutput(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
}

// TestBenchNames keeps only the benchmarks of `-test.list` output.
func TestBenchNames(t *testing.T) {
	got := benchNames("BenchmarkQueryA\nBenchmarkServeTraceB\nTestNotABenchmark\nExampleQuery\n")
	want := []string{"BenchmarkQueryA", "BenchmarkServeTraceB"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("benchNames = %v, want %v", got, want)
	}
}
