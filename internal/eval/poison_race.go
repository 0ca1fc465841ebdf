//go:build race

package eval

// poisonReleased is set in race builds: Release overwrites the
// value-stack slots it frees with releasedSlot, so a list view that
// outlives its consumer reads the sentinel instead of values a later
// row has not yet overwritten.
const poisonReleased = true
