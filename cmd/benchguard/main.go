// Command benchguard is the benchmark-regression gate for the
// exploration engine, the serving path and the simulated call path.
// It runs the BenchmarkQuery*, BenchmarkServeTrace*, BenchmarkServeWarm,
// BenchmarkCtxCall, BenchmarkBuild, BenchmarkStoreOpen and
// BenchmarkSpaceOrder benchmarks of the working tree (HEAD) and of the
// merge base of HEAD and -base side by side on one host. BenchmarkBuild
// is the simulator layer's own row: one core.Build of a two-compartment
// MPK image, catalog included; BenchmarkStoreOpen is the store's: one
// reopen of a 1,500-record segment; BenchmarkSpaceOrder is the engine's
// order layer: a cold safety order, its Hasse edges and a walk with a
// constant measure. The base is
// exported with `git archive` into a temporary directory, so nothing
// is written under .git or into the working tree.
//
// Each of -count rounds runs every benchmark once per test binary,
// each run a fresh process, the two sides back to back and the side
// that goes first alternating by round. A benchmark fails when the
// median over rounds of its paired head/base ns/op ratio exceeds
// 1 + tolerance, when its median allocs/op grew by more than 5%, or
// when it exists at base and not at HEAD; one new at HEAD is reported,
// not gated. On failure the full paired table goes to stderr. -json
// writes the paired record (both revisions; per benchmark each side's
// median ns/op, B/op and allocs/op and the median paired ratio): CI's
// per-commit artifact and the form of a before/after BENCH_*.json.
//
// Usage:
//
//	go run ./cmd/benchguard                  # HEAD vs its merge base with origin/main
//	go run ./cmd/benchguard -base HEAD~1 -count 5
//	go run ./cmd/benchguard -bench '^BenchmarkCtxCall$' -json BENCH_0013.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// allocTolerance bounds the growth of median allocs/op. Allocation
// counts are near-deterministic here, but not exactly: on identical
// binaries BenchmarkServeTraceReplay spans 3% between runs.
const allocTolerance = 0.05

func main() {
	base := flag.String("base", "origin/main", "revision to compare against; the gate builds the merge base of HEAD and it")
	tolerance := flag.Float64("tolerance", 0.20, "maximum allowed median paired slowdown of HEAD vs base")
	benchtime := flag.String("benchtime", "500ms", "-benchtime of each run")
	count := flag.Int("count", 10, "rounds; each runs every benchmark once per binary, each run in a fresh process")
	// BenchmarkQueryParallelSpeedup is deliberately not guarded: it is
	// a speedup *meter* that times the sequential and parallel engines
	// back to back, so its ns/op spans two runs and carries twice the
	// scheduling variance while adding no coverage beyond the
	// Fig6Sequential / Fig6Parallel pair.
	pattern := flag.String("bench", "^BenchmarkQuery(Fig6|CrossAppSpace|MemoizedSweep|Synthetic|Attack)|^BenchmarkServe(Trace|Warm)|^BenchmarkCtxCall$|^BenchmarkBuild$|^BenchmarkStoreOpen$|^BenchmarkSpaceOrder$", "benchmark pattern to guard")
	jsonOut := flag.String("json", "", "write the paired record to this JSON file")
	flag.Parse()

	failed, err := guard(*base, *pattern, *benchtime, *count, *tolerance, *jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if err != nil || failed {
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// guard builds both binaries, runs the rounds, writes the record and
// prints the paired table; it reports whether any benchmark failed.
func guard(base, pattern, benchtime string, count int, tolerance float64, jsonOut string) (bool, error) {
	dir, err := os.MkdirTemp("", "benchguard")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	baseRev, headRev, baseBin, headBin, err := build(dir, base)
	if err != nil {
		return false, err
	}
	fmt.Printf("benchguard: base %s (merge base of HEAD and %s), head %s + working tree\n", baseRev, base, headRev)
	baseRuns, headRuns, err := runPaired(baseBin, headBin, pattern, benchtime, count)
	if err != nil {
		return false, err
	}
	rows, failures, err := compare(baseRuns, headRuns, tolerance)
	if err != nil {
		return false, err
	}
	if jsonOut != "" {
		rec := benchRecord{Base: baseRev, Head: headRev, Rounds: count, Benchmarks: rows}
		if err := writeRecord(jsonOut, rec); err != nil {
			return false, err
		}
		fmt.Printf("benchguard: wrote %s\n", jsonOut)
	}
	out := os.Stdout
	if len(failures) > 0 {
		out = os.Stderr
		fmt.Fprintln(out, "benchguard: FAIL\n  "+strings.Join(failures, "\n  "))
	}
	fmt.Fprint(out, table(rows))
	return len(failures) > 0, nil
}

// build resolves the base to the merge base of HEAD and rev, exports
// it into dir and compiles the root package's test binary there and
// from the working tree.
func build(dir, rev string) (baseRev, headRev, baseBin, headBin string, err error) {
	if headRev, err = run("", "git", "rev-parse", "HEAD"); err != nil {
		return
	}
	if baseRev, err = run("", "git", "merge-base", "HEAD", rev); err != nil {
		return
	}
	tarball := filepath.Join(dir, "base.tar")
	baseBin, headBin = filepath.Join(dir, "base.test"), filepath.Join(dir, "head.test")
	for _, cmd := range [][]string{
		{"", "git", "archive", "--prefix=base/", "-o", tarball, baseRev},
		{"", "tar", "-xf", tarball, "-C", dir},
		{filepath.Join(dir, "base"), "go", "test", "-c", "-o", baseBin, "."},
		{"", "go", "test", "-c", "-o", headBin, "."},
	} {
		if _, err = run(cmd[0], cmd[1], cmd[2:]...); err != nil {
			return
		}
	}
	return
}

// run runs a command in dir (the working directory when empty) and
// returns its trimmed stdout; its stderr passes through.
func run(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("benchguard: %s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// benchResult is one benchmark's measurement: ns/op, plus the B/op
// and allocs/op -benchmem reports for the same run.
type benchResult struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// runPaired lists the benchmarks matching pattern in both binaries and
// runs count rounds. Within a round each benchmark runs on one side
// and then the other, so a pair shares the host's state; which side
// goes first alternates by round. Every run is its own process, so no
// benchmark inherits another's heap or GC pacing.
func runPaired(baseBin, headBin, pattern, benchtime string, count int) (base, head map[string][]benchResult, err error) {
	bins := [2]string{baseBin, headBin}
	listed := [2]map[string]bool{{}, {}}
	for k, bin := range bins {
		list, err := run("", bin, "-test.list", pattern)
		if err != nil {
			return nil, nil, err
		}
		for _, name := range benchNames(list) {
			listed[k][name] = true
		}
	}
	runs := [2]map[string][]benchResult{{}, {}}
	for i := 0; i < count; i++ {
		fmt.Fprintf(os.Stderr, "benchguard: round %d/%d\n", i+1, count)
		for _, name := range sortedKeys(listed[0], listed[1]) {
			for _, k := range [2]int{i % 2, 1 - i%2} {
				if !listed[k][name] {
					continue
				}
				cmd := exec.Command(bins[k], "-test.run", "^$", "-test.bench", "^"+name+"$",
					"-test.benchmem", "-test.benchtime", benchtime)
				// One thread per run: a paired run that fans out over
				// every core competes with the host's other load and
				// with its own GC workers, which widens the spread
				// between the two sides of a pair.
				cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return nil, nil, fmt.Errorf("benchguard: %s %s: %w", bins[k], name, err)
				}
				for sub, r := range parseBenchOutput(string(out)) {
					runs[k][sub] = append(runs[k][sub], r)
				}
			}
		}
	}
	return runs[0], runs[1], nil
}

// sortedKeys returns the union of two maps' keys, sorted.
func sortedKeys[V any](a, b map[string]V) []string {
	keys := slices.AppendSeq(slices.Collect(maps.Keys(a)), maps.Keys(b))
	slices.Sort(keys)
	return slices.Compact(keys)
}

// benchNames turns `-test.list` output into the benchmarks to run.
func benchNames(list string) []string {
	var names []string
	for _, line := range strings.Fields(list) {
		if strings.HasPrefix(line, "Benchmark") {
			names = append(names, line)
		}
	}
	return names
}

// parseBenchOutput reads one process's `go test -bench -benchmem`
// output. It strips the -N GOMAXPROCS suffix from each name (absent
// when N is 1; a hyphen inside a sub-benchmark name is kept) and skips
// custom metrics and lines without ns/op.
func parseBenchOutput(out string) map[string]benchResult {
	results := map[string]benchResult{}
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
		results[name] = r
	}
	return results
}

// benchRow is one benchmark of the paired table: each side's medians
// over the rounds (nil for a side that lacks the benchmark) and the
// median over rounds of the paired head/base ns/op ratio.
type benchRow struct {
	Name        string       `json:"name"`
	Base        *benchResult `json:"base,omitempty"`
	Head        *benchResult `json:"head,omitempty"`
	PairedRatio float64      `json:"paired_ratio,omitempty"`
}

// benchRecord is the JSON shape of the -json record.
type benchRecord struct {
	Base       string     `json:"base"`
	Head       string     `json:"head"`
	Rounds     int        `json:"rounds"`
	Benchmarks []benchRow `json:"benchmarks"`
}

// compare is the gate's decision, a pure function of each side's runs
// per benchmark, in round order. It returns the paired table sorted by
// name and one message per failure. A pattern that matched nothing at
// base is an error — most often a stale pattern after a rename —
// because an empty table passes.
func compare(base, head map[string][]benchResult, tolerance float64) ([]benchRow, []string, error) {
	var rows []benchRow
	var failures []string
	gated := false
	for _, name := range sortedKeys(base, head) {
		row := benchRow{Name: name, Base: medianResult(base[name]), Head: medianResult(head[name])}
		gated = gated || row.Base != nil
		switch {
		case row.Base == nil: // new at HEAD: reported, not gated
		case row.Head == nil:
			failures = append(failures, name+": benchmark disappeared")
		default:
			ratios := make([]float64, min(len(base[name]), len(head[name])))
			for i := range ratios {
				ratios[i] = head[name][i].NsOp / base[name][i].NsOp
			}
			row.PairedRatio = median(ratios)
			if r := row.PairedRatio; r > 1+tolerance {
				failures = append(failures, fmt.Sprintf("%s: median paired ratio %.3f (%+.1f%% > %.0f%% tolerance)",
					name, r, (r-1)*100, tolerance*100))
			}
			if float64(row.Head.AllocsOp) > float64(row.Base.AllocsOp)*(1+allocTolerance) {
				failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs %d at base (> %.0f%% tolerance)",
					name, row.Head.AllocsOp, row.Base.AllocsOp, allocTolerance*100))
			}
		}
		rows = append(rows, row)
	}
	if !gated {
		return nil, nil, fmt.Errorf("benchguard: no benchmark measured at base: nothing to guard (stale -bench pattern?)")
	}
	return rows, failures, nil
}

// medianResult is the per-field median of one side's runs, or nil when
// that side never ran the benchmark.
func medianResult(runs []benchResult) *benchResult {
	if len(runs) == 0 {
		return nil
	}
	var ns, b, allocs []float64
	for _, v := range runs {
		ns, b, allocs = append(ns, v.NsOp), append(b, float64(v.BOp)), append(allocs, float64(v.AllocsOp))
	}
	return &benchResult{NsOp: median(ns), BOp: int64(median(b)), AllocsOp: int64(median(allocs))}
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// table renders the paired table, one row per benchmark.
func table(rows []benchRow) string {
	var b strings.Builder
	b.WriteString("  paired table (medians over rounds):\n")
	for _, row := range rows {
		switch {
		case row.Base == nil:
			fmt.Fprintf(&b, "  %-36s new at head: %.0f ns/op, %d allocs/op (not gated)\n",
				row.Name, row.Head.NsOp, row.Head.AllocsOp)
		case row.Head == nil:
			fmt.Fprintf(&b, "  %-36s missing at head (base %.0f ns/op)\n", row.Name, row.Base.NsOp)
		default:
			fmt.Fprintf(&b, "  %-36s ratio %6.3f  ns/op %.0f -> %.0f  allocs/op %d -> %d\n",
				row.Name, row.PairedRatio, row.Base.NsOp, row.Head.NsOp, row.Base.AllocsOp, row.Head.AllocsOp)
		}
	}
	return b.String()
}

func writeRecord(path string, rec benchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
