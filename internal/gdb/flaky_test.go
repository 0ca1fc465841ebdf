package gdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gqs/internal/graph"
)

func flakyOverReference(t *testing.T, cfg FlakyConfig) *Flaky {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 5, MaxRels: 10})
	ref := NewReference()
	if err := ref.Reset(g, schema); err != nil {
		t.Fatal(err)
	}
	return NewFlaky(ref, cfg)
}

// TestFlakyDeterministic: the same seed produces byte-identical failure
// sequences — the property the campaign-reproducibility guarantee needs.
func TestFlakyDeterministic(t *testing.T) {
	trace := func() string {
		fl := flakyOverReference(t, FlakyConfig{Seed: 11, ErrorRate: 0.3})
		s := ""
		for i := 0; i < 200; i++ {
			_, err := fl.Execute(`RETURN 1 AS x`)
			switch {
			case err == nil:
				s += "."
			case IsTransient(err):
				s += "T"
			default:
				s += "?"
			}
		}
		return s
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("flaky traces diverge:\n%s\n%s", a, b)
	}
	n := 0
	for _, c := range a {
		if c == 'T' {
			n++
		}
	}
	if n < 30 || n > 90 {
		t.Errorf("injection rate off: %d/200 transient at rate 0.3", n)
	}
	if want := 0; len(a) > 0 && a[0] == '?' {
		t.Errorf("unexpected error class, want %d", want)
	}
}

// TestFlakyTransientTyping: injected errors are transient, carry a
// reason, and never masquerade as bug errors.
func TestFlakyTransientTyping(t *testing.T) {
	fl := flakyOverReference(t, FlakyConfig{Seed: 1, ErrorRate: 1})
	_, err := fl.Execute(`RETURN 1 AS x`)
	if err == nil || !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	var te *TransientError
	if !errors.As(err, &te) || te.Reason == "" {
		t.Errorf("transient error has no reason: %v", err)
	}
	var bug interface{ BugID() string }
	if errors.As(err, &bug) {
		t.Error("transient error must not carry a bug ID")
	}
	if fl.TriggeredBug() != nil {
		t.Error("dropped call must not expose a stale TriggeredBug")
	}
	if !IsTransient(fmt.Errorf("retrying: %w", te)) {
		t.Error("IsTransient must unwrap")
	}
	if IsTransient(errors.New("hard failure")) {
		t.Error("plain errors are not transient")
	}
}

// TestFlakyPassThrough: with no injection configured the wrapper is
// invisible — results, dialect flags, and fault attribution delegate.
func TestFlakyPassThrough(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 5, MaxRels: 10})
	mg := NewMemgraphSim()
	if err := mg.Reset(g, schema); err != nil {
		t.Fatal(err)
	}
	fl := NewFlaky(mg, FlakyConfig{Seed: 2})
	if fl.Name() != "memgraph" || !fl.RelUniqueness() || fl.ProvidesDBLabels() {
		t.Error("dialect flags must delegate")
	}
	res, err := fl.Execute(`MATCH (n) RETURN count(*) AS c`)
	if err != nil || res.Len() != 1 {
		t.Fatalf("pass-through execute: %v %v", res, err)
	}
	if _, err := fl.Execute(`WITH replace('a', '', 'b') AS a0 RETURN a0`); err == nil {
		t.Fatal("Figure 9 query must still hang through the wrapper")
	}
	if b := fl.TriggeredBug(); b == nil || b.ID != "MG-O1" {
		t.Errorf("attribution through wrapper = %v", b)
	}
}

// TestFlakyResetInjection: Reset fails transiently at its own rate.
func TestFlakyResetInjection(t *testing.T) {
	fl := flakyOverReference(t, FlakyConfig{Seed: 4, ResetErrorRate: 1})
	r := rand.New(rand.NewSource(5))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 4, MaxRels: 4})
	if err := fl.Reset(g, schema); !IsTransient(err) {
		t.Fatalf("reset err = %v, want transient", err)
	}
}

// TestSimLiveHangCooperates: a live Sim hang returns promptly after the
// watchdog cancels, attributed to the hang bug.
func TestSimLiveHangCooperates(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 5, MaxRels: 10})
	mg := NewMemgraphSim().SetLiveFaults(true)
	if err := mg.Reset(g, schema); err != nil {
		t.Fatal(err)
	}
	// Start the clock before the deadline's: set-up between the two
	// would otherwise measure less than the timeout.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := mg.ExecuteCtx(ctx, `WITH replace('a', '', 'b') AS a0 RETURN a0`)
	elapsed := time.Since(start)
	if elapsed < 25*time.Millisecond {
		t.Errorf("live hang returned in %v, before the deadline", elapsed)
	}
	var bug interface{ BugID() string }
	if !errors.As(err, &bug) || bug.BugID() != "MG-O1" {
		t.Errorf("err = %v, want MG-O1 hang", err)
	}
	if b := mg.TriggeredBug(); b == nil || b.ID != "MG-O1" {
		t.Errorf("TriggeredBug = %v, want MG-O1 (recorded before manifestation)", b)
	}
}
