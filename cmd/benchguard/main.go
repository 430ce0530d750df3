// Command benchguard is the benchmark-regression gate for the
// exploration engine, the trace-driven serving path and the simulated
// call path: it runs the BenchmarkQuery*, BenchmarkServeTrace* and
// BenchmarkCtxCall benchmarks and fails when any of them slowed down by
// more than the tolerance (default 20%) against the checked-in
// baseline.
//
// Raw ns/op is meaningless across machines, so the guard normalizes
// twice: every benchmark is expressed as a ratio to a fixed calibration
// loop (BenchmarkCalibration) measured in the same run, and the whole
// suite runs under GOMAXPROCS=1 so parallel speedup — which scales
// with the host's core count — cannot leak into the ratios. The
// calibration loop calls only the standard library, so a guarded ratio
// moves when its own code does and for no other reason: a faster
// simulator lowers the simulating benchmarks' ratios and leaves the
// engine-only and serving ones where they were. Each benchmark runs in
// its own process, so none inherits another's heap. Absolute ns/op,
// B/op and allocs/op are recorded in the baseline for human eyes only.
//
// The baseline is the repo's perf-trajectory record, a PR-numbered
// JSON file checked in at the repository root (BENCH_0012.json): guard
// mode reads the ratios it pins, and -update rewrites it from the
// current run. -json additionally dumps the *current run's* normalized
// table in the same shape, which CI uploads as a per-commit artifact.
//
// Usage:
//
//	go run ./cmd/benchguard            # compare against the baseline
//	go run ./cmd/benchguard -update    # rewrite the baseline record
//	go run ./cmd/benchguard -tolerance 0.3 -benchtime 2s -count 5
//	go run ./cmd/benchguard -json bench-table.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// reference is the calibration benchmark every guarded benchmark is
// divided by. It is always run, whatever -bench selects.
const reference = "BenchmarkCalibration"

// recordID names the checked-in perf-trajectory record this tree
// maintains; bump it when a PR re-baselines the engine benchmarks so
// the repo history keeps one record per baseline generation.
const recordID = "BENCH_0012"

func main() {
	update := flag.Bool("update", false, "rewrite the baseline record from this run")
	tolerance := flag.Float64("tolerance", 0.20, "maximum allowed relative slowdown vs baseline")
	// On a shared host one run of a benchmark can be a third slower
	// than the next, and slow spells last minutes. Many short runs,
	// round-robin over the suite, give every benchmark and the
	// reference a chance at the host's fast state.
	benchtime := flag.String("benchtime", "500ms", "-benchtime of each run")
	count := flag.Int("count", 10, "runs per benchmark, each in a fresh process; the guard keeps the fastest")
	// BenchmarkQueryParallelSpeedup is deliberately not guarded: it is
	// a speedup *meter* that times the sequential and parallel engines
	// back to back, so its ns/op spans two runs and carries twice the
	// scheduling variance while adding no coverage beyond the
	// Fig6Sequential / Fig6Parallel pair.
	pattern := flag.String("bench", "^BenchmarkQuery(Fig6|CrossAppSpace|MemoizedSweep|Synthetic|Attack)|^BenchmarkServeTrace|^BenchmarkCtxCall$", "benchmark pattern to guard (the reference always runs)")
	baseline := flag.String("baseline", recordID+".json", "checked-in JSON record of the baseline's normalized table (rewritten by -update)")
	jsonOut := flag.String("json", "", "write this run's normalized table to this JSON file (CI artifact)")
	flag.Parse()

	results, err := runBenchmarks(*pattern, *benchtime, *count)
	if err != nil {
		fatal(err)
	}
	nsop := make(map[string]float64, len(results))
	for name, r := range results {
		nsop[name] = r.NsOp
	}
	ratios, ref, err := computeRatios(nsop, *pattern)
	if err != nil {
		fatal(err)
	}
	if *jsonOut != "" {
		if err := writeRecord(*jsonOut, ratios, results, ref); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %s\n", *jsonOut)
	}

	if *update {
		if err := writeRecord(*baseline, ratios, results, ref); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks)\n", *baseline, len(ratios))
		return
	}

	want, err := readRecord(*baseline)
	if err != nil {
		fatal(fmt.Errorf("%w (run `go run ./cmd/benchguard -update` to create it)", err))
	}
	var failures []string
	for name, base := range want {
		got, ok := ratios[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: benchmark disappeared", name))
			continue
		}
		slowdown := got/base - 1
		status := "ok"
		if slowdown > *tolerance {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: ratio %.3f vs baseline %.3f (%+.1f%% > %.0f%% tolerance)",
					name, got, base, slowdown*100, *tolerance*100))
		}
		fmt.Printf("benchguard: %-34s ratio %.3f (baseline %.3f, %+.1f%%) %s  [%d B/op, %d allocs/op]\n",
			name, got, base, slowdown*100, status, results[name].BOp, results[name].AllocsOp)
	}
	for name := range ratios {
		if _, ok := want[name]; !ok {
			fmt.Printf("benchguard: %-34s ratio %.3f (no baseline; run -update to pin)\n", name, ratios[name])
		}
	}
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "benchguard: FAIL")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		// Repeat the whole normalized table on stderr so a CI failure
		// log carries the full picture, not just the regressed rows.
		fmt.Fprint(os.Stderr, normalizedTable(ratios, want))
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// computeRatios normalizes every guarded benchmark to the calibration
// reference measured in the same run. A pattern that matched nothing
// beyond the reference is an error — most often a stale pattern after
// a benchmark rename — because pinning (or passing) an empty baseline
// would disable the regression gate while reporting success.
func computeRatios(nsop map[string]float64, pattern string) (map[string]float64, float64, error) {
	ref, ok := nsop[reference]
	if !ok || ref <= 0 {
		return nil, 0, fmt.Errorf("reference %s missing from benchmark output", reference)
	}
	ratios := map[string]float64{}
	for name, v := range nsop {
		if name != reference {
			ratios[name] = v / ref
		}
	}
	if len(ratios) == 0 {
		return nil, 0, fmt.Errorf("pattern %q matched no benchmark beyond the reference %s: nothing to guard (stale -bench pattern?)", pattern, reference)
	}
	return ratios, ref, nil
}

// normalizedTable renders every measured ratio next to its baseline,
// sorted by name, for the failure log.
func normalizedTable(ratios, want map[string]float64) string {
	names := make([]string, 0, len(ratios))
	for name := range ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("  normalized table (ns/op ratio to " + reference + "):\n")
	for _, name := range names {
		base := "none"
		if v, ok := want[name]; ok {
			base = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(&b, "  %-34s ratio %.3f baseline %s\n", name, ratios[name], base)
	}
	return b.String()
}

// benchResult is one benchmark's measurement: ns/op, plus the B/op
// and allocs/op -benchmem reports for the same run.
type benchResult struct {
	NsOp     float64
	BOp      int64
	AllocsOp int64
}

// runBenchmarks compiles the root package's test binary once, then
// runs the reference and every guarded benchmark count times with
// -benchmem, round-robin, each run in a fresh process. Benchmarks that
// shared a process would share a heap: one that churned gigabytes
// would change the GC pacing, and so the ns/op, of every benchmark
// after it.
func runBenchmarks(pattern, benchtime string, count int) (map[string]benchResult, error) {
	dir, err := os.MkdirTemp("", "benchguard")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "bench.test")
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("benchguard: go test -c: %w", err)
	}
	list, err := exec.Command(bin, "-test.list", pattern).Output()
	if err != nil {
		return nil, fmt.Errorf("benchguard: listing benchmarks: %w", err)
	}
	names := benchNames(string(list))
	results := map[string]benchResult{}
	for i := 0; i < count; i++ {
		for _, name := range names {
			cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", "^"+name+"$",
				"-test.benchmem", "-test.benchtime", benchtime)
			// Single-threaded on every machine: parallel speedup scales
			// with the core count and would make the ratios
			// machine-dependent.
			cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("benchguard: %s: %w", name, err)
			}
			parseBenchOutput(results, string(out))
		}
	}
	return results, nil
}

// benchNames turns `-test.list` output into the benchmarks to run: the
// reference first, then every listed benchmark once.
func benchNames(list string) []string {
	names := []string{reference}
	for _, line := range strings.Fields(list) {
		if strings.HasPrefix(line, "Benchmark") && line != reference {
			names = append(names, line)
		}
	}
	return names
}

// parseBenchOutput reads `go test -bench -benchmem` output into
// results. It strips the -N GOMAXPROCS suffix from each name (absent
// when N is 1; a hyphen inside a sub-benchmark name is kept) and keeps each
// benchmark's fastest run — the standard noise-robust statistic, which
// keeps the ratios stable on contended CI machines — together with that
// run's B/op and allocs/op.
func parseBenchOutput(results map[string]benchResult, out string) {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		// "BenchmarkX-8  123  456789 ns/op  12.00 configs  4096 B/op  7 allocs/op"
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var r benchResult
		haveNs := false
		for i := 2; i < len(fields); i++ {
			v := fields[i-1]
			switch fields[i] {
			case "ns/op":
				f, err := strconv.ParseFloat(v, 64)
				r.NsOp, haveNs = f, err == nil
			case "B/op":
				r.BOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				r.AllocsOp, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if !haveNs {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if old, ok := results[name]; !ok || r.NsOp < old.NsOp {
			results[name] = r
		}
	}
}

// benchRecord is the JSON shape of the checked-in baseline record and
// of the per-run -json artifact: the full normalized table plus the
// machine-dependent absolutes for human eyes.
type benchRecord struct {
	ID        string `json:"id"`
	Reference string `json:"reference"`
	// ReferenceNsOp is informational and machine-dependent; only the
	// ratios are comparable across machines.
	ReferenceNsOp float64    `json:"reference_ns_op"`
	Benchmarks    []benchRow `json:"benchmarks"`
}

type benchRow struct {
	Name  string  `json:"name"`
	Ratio float64 `json:"ratio"`
	NsOp  float64 `json:"ns_op"`
	// BOp and AllocsOp are informational: no gate reads them.
	BOp      int64 `json:"b_op"`
	AllocsOp int64 `json:"allocs_op"`
}

// writeRecord serializes a normalized table as a benchRecord, with
// ratios rounded to five significant digits.
func writeRecord(path string, ratios map[string]float64, results map[string]benchResult, ref float64) error {
	names := make([]string, 0, len(ratios))
	for name := range ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	rec := benchRecord{ID: recordID, Reference: reference, ReferenceNsOp: ref}
	for _, name := range names {
		rec.Benchmarks = append(rec.Benchmarks, benchRow{
			Name:     name,
			Ratio:    roundRatio(ratios[name]),
			NsOp:     results[name].NsOp,
			BOp:      results[name].BOp,
			AllocsOp: results[name].AllocsOp,
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecord reads the baseline ratios a record pins. The record must
// carry this tree's record ID and reference and pin at least one
// benchmark: a foreign record, or an empty one that would pass every
// run, fails the guard instead of silently disabling it.
func readRecord(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchguard: baseline record: %w", err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("benchguard: baseline record %s: %w", path, err)
	}
	if rec.ID != recordID {
		return nil, fmt.Errorf("benchguard: baseline record %s has id %q, want %q", path, rec.ID, recordID)
	}
	if rec.Reference != reference {
		return nil, fmt.Errorf("benchguard: baseline record %s normalizes to %q, want %q", path, rec.Reference, reference)
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchguard: baseline record %s pins no benchmarks", path)
	}
	out := make(map[string]float64, len(rec.Benchmarks))
	for _, row := range rec.Benchmarks {
		if !(row.Ratio > 0) {
			return nil, fmt.Errorf("benchguard: baseline record %s pins %s at ratio %v; every ratio must be positive", path, row.Name, row.Ratio)
		}
		out[row.Name] = row.Ratio
	}
	return out, nil
}

// roundRatio keeps five significant digits, the precision the record
// pins. Significant digits, not decimals: a single simulated call is
// some 10^-5 calibration loops, which a fixed number of decimals would
// round to a zero baseline.
func roundRatio(r float64) float64 {
	v, _ := strconv.ParseFloat(fmt.Sprintf("%.5g", r), 64)
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
