//go:build race

package scenario_test

// raceEnabled reports whether the race detector instruments this build;
// allocation tests skip under it.
const raceEnabled = true
