package metrics

import (
	"fmt"
	"time"
)

// Throughput is the live work of a campaign (or of one leg) and its
// wall-clock time: restored work units are not this run's work, so they
// are never counted.
type Throughput struct {
	Iterations  int64
	Queries     int64
	Bugs        int64
	Checkpoints int64
	Elapsed     time.Duration
}

// IterationsPerSec is the wall-clock iteration rate.
func (t Throughput) IterationsPerSec() float64 { return rate(t.Iterations, t.Elapsed) }

// QueriesPerSec is the wall-clock query rate.
func (t Throughput) QueriesPerSec() float64 { return rate(t.Queries, t.Elapsed) }

func rate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// String renders the throughput summary line campaigns print. The
// checkpoint count appears only on durable campaigns, keeping the
// plain-campaign line unchanged.
func (t Throughput) String() string {
	s := fmt.Sprintf("%.1f iterations/s, %.1f queries/s (%d iterations, %d queries, %d bugs in %.1fs)",
		t.IterationsPerSec(), t.QueriesPerSec(), t.Iterations, t.Queries, t.Bugs, t.Elapsed.Seconds())
	if t.Checkpoints > 0 {
		s += fmt.Sprintf(" [%d checkpoints]", t.Checkpoints)
	}
	return s
}
