//go:build !race

package heuristics

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
