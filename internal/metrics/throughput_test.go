package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestThroughputRates(t *testing.T) {
	tp := Throughput{Iterations: 10, Queries: 50, Elapsed: 2 * time.Second}
	if got := tp.IterationsPerSec(); got != 5 {
		t.Errorf("IterationsPerSec = %v, want 5", got)
	}
	if got := tp.QueriesPerSec(); got != 25 {
		t.Errorf("QueriesPerSec = %v, want 25", got)
	}
	zero := Throughput{}
	if zero.IterationsPerSec() != 0 || zero.QueriesPerSec() != 0 {
		t.Error("zero elapsed must not divide by zero")
	}
	if !strings.Contains(tp.String(), "iterations/s") {
		t.Errorf("String() = %q missing rate", tp.String())
	}
}

func TestLatencySummary(t *testing.T) {
	lo, mean, hi := LatencySummary([]time.Duration{3 * time.Second, time.Second, 2 * time.Second})
	if lo != time.Second || hi != 3*time.Second || mean != 2*time.Second {
		t.Fatalf("summary = %v/%v/%v", lo, mean, hi)
	}
	if lo, mean, hi = LatencySummary(nil); lo != 0 || mean != 0 || hi != 0 {
		t.Fatal("empty summary must be zero")
	}
}
