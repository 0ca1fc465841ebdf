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
