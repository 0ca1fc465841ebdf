//go:build race

package engine_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
