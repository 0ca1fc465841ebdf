package main

import (
	"strings"
	"testing"
)

// TestValidateRejectsBadArguments: an unknown -exp (including the
// fig-prefixed ones no experiment renders) and negative counts are
// refused up front (main exits 2, like a flag parse error) instead of
// printing nothing or all-zero tables and exiting 0.
func TestValidateRejectsBadArguments(t *testing.T) {
	for _, exp := range append([]string{"all"}, experimentNames...) {
		if err := validate(exp, 0, 0, 0); err != nil {
			t.Errorf("-exp %s with zero counts must be valid: %v", exp, err)
		}
	}
	for _, exp := range []string{"fig99", "fig16", "bench", ""} {
		err := validate(exp, 20, 2000, 400)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %q: err = %v, want an unknown-experiment error", exp, err)
		}
	}
	for flag, c := range map[string][3]int{
		"-iterations": {-1, 2000, 400},
		"-n":          {20, -1, 400},
		"-rounds":     {20, 2000, -1},
	} {
		err := validate("table3", c[0], c[1], c[2])
		if err == nil || !strings.Contains(err.Error(), flag+":") {
			t.Errorf("%s negative: err = %v, want an error naming the flag", flag, err)
		}
	}
}
