package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and whether at least minBeyond samples lie strictly
// above it. A tail percentile is only worth reporting when enough samples
// lie beyond it to make it more than one outlier; callers pass 10.
func Percentile(xs []float64, p float64, minBeyond int) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	v := s[rank-1]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond >= minBeyond
}

// Median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// micros converts durations to microseconds for the percentile helpers.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// runtimeSample is the process-wide counters a measurement window is
// bracketed with.
type runtimeSample struct {
	allocObjects uint64
	allocBytes   uint64
	gcCPU        float64
	totalCPU     float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocObjects: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// runtimeDelta is what happened in the runtime between two samples.
type runtimeDelta struct {
	allocs     float64
	allocBytes float64
	gcCPUShare float64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocs:     float64(b.allocObjects - a.allocObjects),
		allocBytes: float64(b.allocBytes - a.allocBytes),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// timeSetup runs setup reps times, collecting garbage before each so a
// rep does not pay for the previous one, and returns the median wall
// time together with the last rep's result.
func timeSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var out T
	var secs []float64
	for i := 0; i < reps; i++ {
		var zero T
		out = zero
		runtime.GC()
		start := time.Now()
		v, err := setup()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return out, 0, err
		}
		out = v
	}
	return out, Median(secs), nil
}
