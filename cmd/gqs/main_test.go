package main

import (
	"strings"
	"testing"
)

// TestValidateRejectsNegativeCounts: negative -iterations, -workers and
// -batch are refused up front (main exits 2, like a flag parse error)
// instead of reaching the executor — a negative -iterations used to
// panic sizing the per-shard detection buffers.
func TestValidateRejectsNegativeCounts(t *testing.T) {
	if err := validate(options{}); err != nil {
		t.Fatalf("zero counts are valid (0 workers = GOMAXPROCS, 0 batch = automatic): %v", err)
	}
	for flag, o := range map[string]options{
		"-iterations": {iterations: -1},
		"-workers":    {iterations: 4, workers: -1},
		"-batch":      {iterations: 4, workers: 2, batch: -3},
	} {
		err := validate(o)
		if err == nil || !strings.Contains(err.Error(), flag+":") {
			t.Errorf("%s negative: err = %v, want an error naming the flag", flag, err)
		}
	}
}

// TestFingerprintLabelsTargets pins the journal identity the command
// writes: existing journals resume only while this string is unchanged.
func TestFingerprintLabelsTargets(t *testing.T) {
	o := options{seed: 7, iterations: 40, workers: 2, live: true, flaky: 0.1}
	fp := fingerprint([]string{"neo4j", "kuzu"}, o)
	for _, want := range []string{
		" mode=sharded targets=neo4j,kuzu live flaky=0.1 catalog=",
		" workers=2 batch=5 iterations=40 seed=7 ",
	} {
		if !strings.Contains(fp, want) {
			t.Errorf("fingerprint lacks %q:\n%s", want, fp)
		}
	}
}
