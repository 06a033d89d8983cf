//go:build race

package heuristics

// raceEnabled reports a race-detector build, whose ~20× slowdown would make
// the largest single-goroutine oracle comparisons take minutes.
const raceEnabled = true
