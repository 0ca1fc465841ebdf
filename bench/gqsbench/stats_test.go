package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: Percentile must sort
	}
	return xs
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		name      string
		xs        []float64
		p         float64
		want      float64
		enoughTen bool
	}{
		{"p99 of 1000 leaves exactly 10 beyond", seq(1000), 99, 990, true},
		{"p99 of 999 leaves 10 beyond", seq(999), 99, 990, false},
		{"p99 of 500 leaves 5 beyond", seq(500), 99, 495, false},
		{"p50 of 4 is the lower middle", seq(4), 50, 2, false},
		{"ties are not beyond", []float64{1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 10, 5, false},
		{"p100 is the maximum", seq(7), 100, 7, false},
	}
	for _, c := range cases {
		got, ok := Percentile(c.xs, c.p, 10)
		if got != c.want || ok != c.enoughTen {
			t.Errorf("%s: Percentile = %v, %v; want %v, %v", c.name, got, ok, c.want, c.enoughTen)
		}
	}
	// 999 samples: nearest rank 990 leaves 9 samples above it.
	if _, ok := Percentile(seq(999), 99, 9); !ok {
		t.Errorf("p99 of 999 should leave 9 samples beyond")
	}
	if v, ok := Percentile(nil, 99, 0); v != 0 || ok {
		t.Errorf("empty: got %v, %v", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestMicros(t *testing.T) {
	got := micros([]time.Duration{1500 * time.Nanosecond, 2 * time.Millisecond})
	if got[0] != 1.5 || got[1] != 2000 {
		t.Errorf("micros = %v", got)
	}
}
