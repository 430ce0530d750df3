//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// allocation tests skip under it.
const raceEnabled = true
