//go:build !race

package eval

// poisonReleased is unset in normal builds, which compile Release's
// poisoning loop out (see poison_race.go).
const poisonReleased = false
