package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateRejectsNegativeCounts: option values that no campaign can
// run with, or that would silently test nothing or mean something else,
// are refused up front (main exits 2, like a flag parse error) instead
// of reaching the executor — a negative -iterations used to panic sizing
// the per-shard detection buffers, -flaky 2 failed every restart and ran
// no query, -max-rels 0 meant the library's default of 500, -retries 0
// meant 2 retries and -timeout 0 a 20s deadline.
func TestValidateRejectsNegativeCounts(t *testing.T) {
	// The flag defaults.
	valid := options{
		iterations: 30, maxNodes: 13, maxRels: 60, maxSteps: 9, resultSet: 6, ckEvery: 10,
		timeout: 20 * time.Second, retries: 2,
	}
	if err := validate(valid); err != nil {
		t.Fatalf("the flag defaults are valid: %v", err)
	}
	for _, o := range []options{
		// 0 workers = GOMAXPROCS, 0 batch = automatic, 0 graph-scale =
		// the paper's generator, 0 checkpoint-every and -flaky 1 are
		// accepted.
		func(o options) options { o.iterations, o.workers, o.batch = 0, 0, 0; return o }(valid),
		func(o options) options { o.graphScale, o.ckEvery, o.flaky = 0, 0, 1; return o }(valid),
		func(o options) options { o.maxNodes, o.maxRels, o.maxSteps, o.resultSet = 1, 1, 1, 1; return o }(valid),
		// A negative -timeout or -retries disables the mechanism.
		func(o options) options { o.timeout, o.retries = -time.Second, -1; return o }(valid),
	} {
		if err := validate(o); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	for flag, set := range map[string]func(*options){
		"-iterations":       func(o *options) { o.iterations = -1 },
		"-workers":          func(o *options) { o.workers = -1 },
		"-batch":            func(o *options) { o.batch = -3 },
		"-graph-scale":      func(o *options) { o.graphScale = -1 },
		"-checkpoint-every": func(o *options) { o.ckEvery = -5 },
		"-max-nodes":        func(o *options) { o.maxNodes = 0 },
		"-max-rels":         func(o *options) { o.maxRels = 0 },
		"-max-steps":        func(o *options) { o.maxSteps = -2 },
		"-max-result-set":   func(o *options) { o.resultSet = 0 },
		"-flaky":            func(o *options) { o.flaky = 2 },
		"-timeout":          func(o *options) { o.timeout = 0 },
		"-retries":          func(o *options) { o.retries = 0 },
	} {
		o := valid
		set(&o)
		err := validate(o)
		if err == nil || !strings.Contains(err.Error(), flag+":") {
			t.Errorf("%s invalid: err = %v, want an error naming the flag", flag, err)
		}
	}
	// A refused zero names the negative value that disables the flag.
	for flag, set := range map[string]func(*options){
		"-timeout -1s": func(o *options) { o.timeout = 0 },
		"-retries -1":  func(o *options) { o.retries = 0 },
	} {
		o := valid
		set(&o)
		if err := validate(o); err == nil || !strings.Contains(err.Error(), flag+" to disable") {
			t.Errorf("%s: err = %v, want it to name the disabling value", flag, err)
		}
	}
	o := valid
	o.flaky = -0.1
	if err := validate(o); err == nil {
		t.Error("-flaky -0.1 must be refused")
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
