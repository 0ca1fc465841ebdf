package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"gqs/internal/engine"
	"gqs/internal/metrics"
)

func feats() *metrics.Features { return metrics.Analyze(`MATCH (a) RETURN a`) }

// TestLiveHangBlocksUntilCanceled: in live mode a Hang bug must actually
// block — the Figure 9 non-termination — and return only once the
// watchdog cancels the context.
func TestLiveHangBlocksUntilCanceled(t *testing.T) {
	b := &Bug{ID: "T-HANG", Kind: Hang}
	// Start the clock before the deadline's: a goroutine preempted
	// between the two would otherwise measure less than the timeout.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := b.ManifestCtx(ctx, true, nil, feats())
	elapsed := time.Since(start)
	if elapsed < 30*time.Millisecond {
		t.Errorf("live hang returned after %v, before the watchdog deadline", elapsed)
	}
	var be *BugError
	if !errors.As(err, &be) || be.ID != "T-HANG" || be.Kind != Hang {
		t.Errorf("live hang error = %v, want attributed BugError", err)
	}
}

// TestLiveCrashPanics: in live mode a Crash bug panics inside the
// connector, as a dead server process manifests to a driver.
func TestLiveCrashPanics(t *testing.T) {
	b := &Bug{ID: "T-CRASH", Kind: Crash}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("live crash must panic")
		}
		be, ok := p.(*BugError)
		if !ok || be.ID != "T-CRASH" || be.Kind != Crash {
			t.Errorf("panic value = %v, want attributed *BugError", p)
		}
	}()
	b.ManifestCtx(context.Background(), true, nil, feats())
}

// TestLiveLatency: a live exception spends its injected latency before
// manifesting; cancellation during the latency window wins.
func TestLiveLatency(t *testing.T) {
	b := &Bug{ID: "T-EXC", Kind: Exception, Latency: 20 * time.Millisecond}
	start := time.Now()
	_, err := b.ManifestCtx(context.Background(), true, nil, feats())
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("latency not injected: manifested after %v", d)
	}
	var be *BugError
	if !errors.As(err, &be) || be.Kind != Exception {
		t.Errorf("err = %v, want exception BugError", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = b.ManifestCtx(ctx, true, nil, feats())
	if !errors.Is(err, engine.ErrCanceled) {
		t.Errorf("canceled latency: err = %v, want ErrCanceled", err)
	}
}

// TestSimulatedModeUnchanged: live == false keeps the instant
// manifestation and reports hang/crash as plain errors.
func TestSimulatedModeUnchanged(t *testing.T) {
	for _, k := range []Kind{Crash, Hang, Exception} {
		b := &Bug{ID: "T-SIM", Kind: k, Latency: time.Hour} // latency ignored when not live
		start := time.Now()
		_, err := b.ManifestCtx(context.Background(), false, nil, feats())
		if time.Since(start) > time.Second {
			t.Fatalf("%v: simulated manifestation must be instant", k)
		}
		var be *BugError
		if !errors.As(err, &be) || be.Kind != k {
			t.Errorf("%v: err = %v", k, err)
		}
		if be.FaultKind() != k.String() {
			t.Errorf("FaultKind() = %q, want %q", be.FaultKind(), k)
		}
	}
}

// TestSelectMatchesApply: the error a selected bug manifests carries the
// ID Select chose, so attribution recorded before the manifestation
// agrees with the error the runner sees.
func TestSelectMatchesApply(t *testing.T) {
	s := Memgraph()
	f := metrics.Analyze(`WITH replace('x', '', 'y') AS a0 RETURN a0`)
	want := s.Select(f, nil)
	if want == nil || want.ID != "MG-O1" {
		t.Fatalf("Select = %v, want MG-O1", want)
	}
	_, err := want.ManifestCtx(context.Background(), false, nil, f)
	var be *BugError
	if !errors.As(err, &be) || be.BugID() != want.ID {
		t.Errorf("manifested %v, Select chose %v", err, want)
	}
	if s.Select(nil, nil) != nil || (*Set)(nil).Select(f, nil) != nil {
		t.Error("nil set/features must select nothing")
	}
}
