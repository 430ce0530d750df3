//go:build race

package mem

// raceEnabled reports whether the race detector instruments this build;
// allocation tests skip under it.
const raceEnabled = true
