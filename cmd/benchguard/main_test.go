package main

import (
	"os"
	"path/filepath"
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
	nsop := map[string]float64{
		"BenchmarkQueryA": 125,
		"BenchmarkQueryB": 50,
		reference:         100,
	}
	if err := writeRecord(path, ratios, nsop, 100); err != nil {
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
// record's four decimals.
func TestRecordRoundTripMatchesBaseline(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, recordID+".json")
	recPath := filepath.Join(dir, "record.json")
	ratios := map[string]float64{
		"BenchmarkQueryA":          1.23456, // exercises the %.4f rounding
		"BenchmarkQuerySyntheticB": 0.5,
	}
	nsop := map[string]float64{
		"BenchmarkQueryA":          123456,
		"BenchmarkQuerySyntheticB": 50000,
		reference:                  100000,
	}
	if err := writeRecord(basePath, ratios, nsop, 100000); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(recPath, ratios, nsop, 100000); err != nil {
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
	if baseline["BenchmarkQueryA"] != 1.2346 {
		t.Errorf("rounded ratio = %v, want 1.2346", baseline["BenchmarkQueryA"])
	}
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
	if _, ok := got["BenchmarkQueryFig6Parallel"]; !ok {
		t.Errorf("baseline record does not pin BenchmarkQueryFig6Parallel: %v", got)
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
