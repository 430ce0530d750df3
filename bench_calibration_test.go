// The calibration benchmark: cmd/benchguard's reference. It imports
// nothing from this module, so its cost tracks only the host (and the
// Go toolchain), never a change to the code the guard watches.
package flexos_test

import (
	"crypto/sha256"
	"encoding/json"
	"sort"
	"strconv"
	"testing"
)

// calibrationKeys is the size of the calibration loop's working set.
const calibrationKeys = 4096

// BenchmarkCalibration runs a fixed mix of standard-library work — a
// string-keyed map built and probed, a sort, a JSON round trip and a
// SHA-256 — over the same pseudo-random keys every time. benchguard
// divides every guarded benchmark by it, so a guarded ratio moves only
// when the guarded code does. The mix allocates and hashes the way the
// engine, memo and serving benchmarks do, so host speed and GC cost
// cancel out of the ratios.
func BenchmarkCalibration(b *testing.B) {
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += calibrationLoop()
	}
	if sum != b.N*calibrationLoop() {
		b.Fatal("calibration loop is not deterministic")
	}
}

// calibrationLoop is one unit of calibration work; it returns a
// checksum so the compiler cannot drop any of it.
func calibrationLoop() int {
	keys := make([]string, calibrationKeys)
	index := make(map[string]int)
	x := uint64(1)
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407 // Knuth's MMIX LCG
		keys[i] = strconv.FormatUint(x>>16, 36)
		index[keys[i]] = i
	}
	sort.Strings(keys)
	sum := 0
	for _, k := range keys {
		sum += index[k]
	}
	data, err := json.Marshal(keys)
	if err != nil {
		panic(err)
	}
	var back []string
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	digest := sha256.Sum256(data)
	return sum + len(back) + int(digest[0])
}
