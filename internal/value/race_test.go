//go:build race

package value

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
