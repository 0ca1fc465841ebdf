//go:build race

package ast

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
