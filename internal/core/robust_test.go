package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gqs/internal/engine"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// scriptTarget is a stub Target whose execution is scripted per test;
// reset failures are scripted through resetErr.
type scriptTarget struct {
	exec     func(ctx context.Context) (*engine.Result, error)
	resetErr func() error
}

func (s *scriptTarget) Name() string { return "stub" }
func (s *scriptTarget) ResetSnapshot(*graph.Snapshot, *graph.Schema) error {
	if s.resetErr != nil {
		return s.resetErr()
	}
	return nil
}
func (s *scriptTarget) ExecutePrepared(ctx context.Context, _ *engine.PreparedQuery) (*engine.Result, error) {
	return s.exec(ctx)
}
func (s *scriptTarget) RelUniqueness() bool    { return true }
func (s *scriptTarget) ProvidesDBLabels() bool { return true }

// stubFaultErr mimics a fault-attributed connector error (hang, crash).
type stubFaultErr struct{ id, kind string }

func (e *stubFaultErr) Error() string     { return e.kind + " " + e.id }
func (e *stubFaultErr) BugID() string     { return e.id }
func (e *stubFaultErr) FaultKind() string { return e.kind }

// stubTransientErr mimics a flaky-connection failure.
type stubTransientErr struct{}

func (e *stubTransientErr) Error() string   { return "connection reset" }
func (e *stubTransientErr) Transient() bool { return true }

func tinyRunnerConfig() RunnerConfig {
	cfg := DefaultRunnerConfig()
	cfg.Graph = graph.GenConfig{MaxNodes: 6, MaxRels: 12}
	cfg.QueriesPerGraph = 2
	cfg.QueriesPerGT = 1
	cfg.Robust = RobustnessConfig{
		Timeout: 30 * time.Millisecond,
		Grace:   40 * time.Millisecond,
	}
	return cfg
}

// cancelAware declares a test target cancel-aware, so the runner calls
// it on its own goroutine instead of through the watchdog.
type cancelAware struct{ Target }

func (cancelAware) CancelAware() bool { return true }

// onBothPaths runs one iteration on a fresh target from mk through the
// watchdog, and one on another fresh target declared cancel-aware, which
// the runner calls inline. Both must give the same verdicts and errors
// and the same Stats (Elapsed aside); it returns those Stats.
func onBothPaths(t *testing.T, cfg RunnerConfig, mk func() Target) Stats {
	t.Helper()
	var traces [2]string
	var stats [2]Stats
	for i, tgt := range []Target{mk(), cancelAware{mk()}} {
		rn := NewRunner(tgt, cfg)
		if rn.cancelAware != (i == 1) {
			t.Fatalf("target %T: cancelAware = %v", tgt, rn.cancelAware)
		}
		var sb strings.Builder
		rn.RunIteration(func(tc *TestCase) { fmt.Fprintf(&sb, "%v %v;", tc.Verdict, tc.Err) })
		traces[i], stats[i] = sb.String(), rn.Stats()
		stats[i].Elapsed = 0
	}
	if traces[0] != traces[1] {
		t.Fatalf("verdicts diverge:\nwatchdog %s\ninline   %s", traces[0], traces[1])
	}
	if stats[0] != stats[1] {
		t.Fatalf("stats diverge:\nwatchdog %+v\ninline   %+v", stats[0], stats[1])
	}
	return stats[0]
}

func verdictTrace(rn *Runner, iterations int) string {
	var sb strings.Builder
	rn.Run(iterations, func(tc *TestCase) {
		sb.WriteString(tc.Verdict.String())
		sb.WriteByte(';')
	})
	return sb.String()
}

// TestHangTimeoutIsErrorBug: a connector hanging on a triggered fault is
// canceled at the deadline and classified as the paper's hang class of
// error-bugs, and the target is restarted afterwards — on the watchdog
// and on the inline path alike.
func TestHangTimeoutIsErrorBug(t *testing.T) {
	st := onBothPaths(t, tinyRunnerConfig(), func() Target {
		return &scriptTarget{exec: func(ctx context.Context) (*engine.Result, error) {
			<-ctx.Done() // cooperative live hang: unwind once canceled
			return nil, &stubFaultErr{id: "ST-H1", kind: "hang"}
		}}
	})
	if st.ErrorBugs == 0 {
		t.Errorf("hang timeouts must be error-bugs: %+v", st)
	}
	if st.Robust.Timeouts == 0 {
		t.Errorf("no timeout recorded: %+v", st.Robust)
	}
	if st.Robust.Restarts == 0 {
		t.Errorf("a hang must force a restart: %+v", st.Robust)
	}
}

// TestBenignTimeoutIsSkip: a slow query with no fault involved times out
// into a skip — not evidence of a bug — and needs no restart, on both
// execution paths.
func TestBenignTimeoutIsSkip(t *testing.T) {
	st := onBothPaths(t, tinyRunnerConfig(), func() Target {
		return &scriptTarget{exec: func(ctx context.Context) (*engine.Result, error) {
			<-ctx.Done()
			return nil, engine.ErrCanceled
		}}
	})
	if st.ErrorBugs != 0 || st.LogicBugs != 0 {
		t.Errorf("benign timeout counted as a bug: %+v", st)
	}
	if st.Skips == 0 || st.Robust.Timeouts == 0 {
		t.Errorf("benign timeout not recorded as skip: %+v / %+v", st, st.Robust)
	}
	if st.Robust.Restarts != 0 {
		t.Errorf("benign timeout must not restart the target: %+v", st.Robust)
	}
}

// TestPanicIsolated: a connector panic (live crash fault) is recovered
// into a crash verdict, the process survives, and the target restarts,
// whether the call ran in the watchdog goroutine or inline.
func TestPanicIsolated(t *testing.T) {
	st := onBothPaths(t, tinyRunnerConfig(), func() Target {
		return &scriptTarget{exec: func(ctx context.Context) (*engine.Result, error) {
			panic(&stubFaultErr{id: "ST-C1", kind: "crash"})
		}}
	})
	if st.Robust.PanicsRecovered == 0 {
		t.Fatalf("panic not recovered: %+v", st.Robust)
	}
	if st.ErrorBugs == 0 {
		t.Errorf("recovered panic must be an error-bug: %+v", st)
	}
	if st.Robust.Restarts == 0 {
		t.Errorf("a crash must restart the target: %+v", st.Robust)
	}
}

// TestPanicAttributionSurvives: a panic value carrying a BugID stays
// reachable through PanicError's Unwrap for fault attribution.
func TestPanicAttributionSurvives(t *testing.T) {
	perr := &PanicError{Val: &stubFaultErr{id: "ST-C2", kind: "crash"}}
	var b interface{ BugID() string }
	if !errors.As(perr, &b) || b.BugID() != "ST-C2" {
		t.Fatalf("BugID lost through PanicError: %v", perr)
	}
	if faultKind(perr) != "crash" {
		t.Errorf("faultKind lost through PanicError")
	}
	if (&PanicError{Val: "boom"}).Unwrap() != nil {
		t.Errorf("non-error panic value must unwrap to nil")
	}
}

// TestWedgedConnectorRestarts: a connector that ignores cancellation past
// the grace window is abandoned, skipped, and the target restarted.
func TestWedgedConnectorRestarts(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // free the abandoned goroutines
	tgt := &scriptTarget{exec: func(ctx context.Context) (*engine.Result, error) {
		<-release // non-cooperative: ignores ctx entirely
		return nil, errors.New("too late")
	}}
	cfg := tinyRunnerConfig()
	cfg.Robust.Timeout = 15 * time.Millisecond
	cfg.Robust.Grace = 15 * time.Millisecond
	cfg.QueriesPerGraph = 1
	rn := NewRunner(tgt, cfg)
	rn.RunIteration(nil)
	st := rn.Stats()
	if st.Skips == 0 || st.Robust.Timeouts == 0 {
		t.Errorf("wedged call not skipped as timeout: %+v / %+v", st, st.Robust)
	}
	if st.ErrorBugs != 0 {
		t.Errorf("wedge without fault attribution is not a bug: %+v", st)
	}
	if st.Robust.Restarts == 0 {
		t.Errorf("a wedged connector must be restarted: %+v", st.Robust)
	}
}

// TestLateResultIsTimeout: a call that unwinds only after its deadline
// is a timeout skip, whatever it returns, on both execution paths.
// Within the grace window the target stays up. Past it the connector is
// wedged: a cancel-aware call is waited for and then treated exactly
// like the call the watchdog abandons, and the target is restarted.
func TestLateResultIsTimeout(t *testing.T) {
	cfg := tinyRunnerConfig()
	cfg.Robust.Timeout = 15 * time.Millisecond
	cfg.Robust.Grace = 60 * time.Millisecond
	cfg.QueriesPerGraph = 1
	for _, tc := range []struct {
		name     string
		late     time.Duration
		restarts int
	}{
		{"within-grace", cfg.Robust.Grace / 3, 0},
		{"past-grace", 3 * cfg.Robust.Grace, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := onBothPaths(t, cfg, func() Target {
				return &scriptTarget{exec: func(ctx context.Context) (*engine.Result, error) {
					<-ctx.Done()
					time.Sleep(tc.late)
					return &engine.Result{}, nil // too late to count
				}}
			})
			if st.Skips != 1 || st.Robust.Timeouts != 1 || st.LogicBugs != 0 {
				t.Errorf("late result not a timeout skip: %+v", st)
			}
			if st.Robust.Restarts != tc.restarts {
				t.Errorf("Restarts = %d, want %d", st.Robust.Restarts, tc.restarts)
			}
		})
	}
}

// TestInlineCallRunsOnRunnerGoroutine: a cancel-aware target is called
// on the runner's own goroutine, so its stack holds RunIteration; the
// watchdog calls every other target on a goroutine of its own.
func TestInlineCallRunsOnRunnerGoroutine(t *testing.T) {
	for _, inline := range []bool{false, true} {
		var stack string
		var tgt Target = &scriptTarget{exec: func(ctx context.Context) (*engine.Result, error) {
			buf := make([]byte, 64<<10)
			stack = string(buf[:runtime.Stack(buf, false)])
			return nil, errors.New("done")
		}}
		if inline {
			tgt = cancelAware{tgt}
		}
		cfg := tinyRunnerConfig()
		cfg.QueriesPerGraph = 1
		NewRunner(tgt, cfg).RunIteration(nil)
		if stack == "" {
			t.Fatal("the target was never called")
		}
		if got := strings.Contains(stack, "(*Runner).RunIteration"); got != inline {
			t.Errorf("inline=%v: call stack holds RunIteration = %v:\n%s", inline, got, stack)
		}
	}
}

// TestNoDeadlineHonoursCampaignCancel: with the deadline disabled
// (Timeout < 0), a target is still called under the campaign's
// context, so canceling the campaign ends the query in
// flight instead of leaving the runner blocked.
func TestNoDeadlineHonoursCampaignCancel(t *testing.T) {
	cfg := tinyRunnerConfig()
	cfg.Robust.Timeout = -1
	started := make(chan struct{})
	var once sync.Once
	tgt := &scriptTarget{exec: func(ctx context.Context) (*engine.Result, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, engine.ErrCanceled
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rn := NewRunnerCtx(ctx, tgt, cfg)
	done := make(chan Stats, 1)
	go func() {
		rn.RunIteration(nil)
		done <- rn.Stats()
	}()
	bound := time.NewTimer(10 * time.Second)
	defer bound.Stop()
	select {
	case <-started:
	case <-bound.C:
		t.Fatal("no query reached the target")
	}
	cancel()
	select {
	case st := <-done:
		if st.Queries != 1 || st.Skips != 1 || st.ErrorBugs != 0 {
			t.Errorf("canceled query must end the iteration as one skip: %+v", st)
		}
	case <-bound.C:
		t.Fatal("canceling the campaign did not interrupt the query in flight")
	}
}

// TestErrorChecksDoNotAllocateOnNil: the runner checks every call's
// error for a transient, an attributed or a crash/hang fault, and a
// passing query's error is nil; those checks must not allocate.
func TestErrorChecksDoNotAllocateOnNil(t *testing.T) {
	var err error
	for name, check := range map[string]func(){
		"isTransient": func() { sinkBool = isTransient(err) },
		"hasBugID":    func() { sinkBool = hasBugID(err) },
		"faultKind":   func() { sinkBool = faultKind(err) != "" },
	} {
		if n := testing.AllocsPerRun(100, check); n != 0 {
			t.Errorf("%s(nil) allocates %.0f times", name, n)
		}
	}
}

var sinkBool bool

// failFirstAttempt wraps a healthy target, failing the first attempt of
// every query transiently so each query needs exactly one retry.
type failFirstAttempt struct {
	Target
	calls int
}

func (f *failFirstAttempt) ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error) {
	f.calls++
	if f.calls%2 == 1 {
		return nil, &stubTransientErr{}
	}
	return f.Target.ExecutePrepared(ctx, pq)
}

// TestTransientRetrySucceeds: transient connector errors are retried and
// the query still completes normally — retries are invisible to verdicts,
// on both execution paths.
func TestTransientRetrySucceeds(t *testing.T) {
	st := onBothPaths(t, tinyRunnerConfig(), func() Target {
		return &failFirstAttempt{Target: gdb.NewReference()}
	})
	if st.Robust.Retries == 0 || st.Robust.TransientErrors == 0 {
		t.Fatalf("no retries recorded: %+v", st.Robust)
	}
	if st.Robust.TransientGiveUps != 0 {
		t.Errorf("retry should have succeeded: %+v", st.Robust)
	}
	if st.Passes == 0 {
		t.Errorf("retried queries must still pass: %+v", st)
	}
	if st.ErrorBugs != 0 || st.LogicBugs != 0 {
		t.Errorf("transient errors counted as bugs: %+v", st)
	}
}

// TestTransientExhaustionIsSkip: a connection that stays down through
// every retry yields skips, never error-bugs (satellite: classifyError
// must not count transients as bugs), on both execution paths.
func TestTransientExhaustionIsSkip(t *testing.T) {
	st := onBothPaths(t, tinyRunnerConfig(), func() Target {
		return &scriptTarget{exec: func(ctx context.Context) (*engine.Result, error) {
			return nil, &stubTransientErr{}
		}}
	})
	if st.ErrorBugs != 0 || st.LogicBugs != 0 {
		t.Fatalf("transient exhaustion counted as a bug: %+v", st)
	}
	if st.Robust.TransientGiveUps == 0 || st.Skips == 0 {
		t.Errorf("give-ups not recorded as skips: %+v / %+v", st, st.Robust)
	}
	// Every executed (not synthesis-skipped) query burns the default 2
	// retries before giving up.
	wantRetries := st.Robust.TransientGiveUps * 2
	if st.Robust.Retries != wantRetries {
		t.Errorf("Retries = %d, want %d", st.Robust.Retries, wantRetries)
	}
	if classifyError(&stubTransientErr{}) != VerdictSkip {
		t.Errorf("classifyError must skip transient errors")
	}
}

// flakyReset wraps a healthy target with a switchable reset failure.
type flakyReset struct {
	Target
	down bool
}

func (f *flakyReset) ResetSnapshot(snap *graph.Snapshot, s *graph.Schema) error {
	if f.down {
		return errors.New("instance did not come up")
	}
	return f.Target.ResetSnapshot(snap, s)
}

// TestBreakerTripsAndCampaignContinues: a target that cannot be brought
// up trips the circuit breaker after the threshold of failed restart
// sequences; the campaign records failed iterations and keeps going, and
// once the target heals the half-open probe closes the breaker again.
func TestBreakerTripsAndCampaignContinues(t *testing.T) {
	tgt := &flakyReset{Target: gdb.NewReference(), down: true}
	cfg := tinyRunnerConfig()
	rn := NewRunner(tgt, cfg)

	st := rn.Run(5, nil)
	if st.Robust.FailedIterations != 5 {
		t.Errorf("FailedIterations = %d, want 5", st.Robust.FailedIterations)
	}
	if st.Robust.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", st.Robust.BreakerTrips)
	}
	if open, fails := rn.Breaker(); !open || fails < 3 {
		t.Errorf("breaker open=%v fails=%d, want open after 3 failed sequences", open, fails)
	}
	if st.Graphs != 0 || st.Queries != 0 {
		t.Errorf("no queries should run against a dead target: %+v", st)
	}
	// With the breaker open each iteration costs one probe, not a full
	// restart sequence.
	failuresWhileOpen := st.Robust.RestartFailures

	// The target heals: the next half-open probe closes the breaker and
	// the campaign resumes producing verdicts.
	tgt.down = false
	st = rn.Run(2, nil)
	if open, _ := rn.Breaker(); open {
		t.Errorf("breaker must close after a successful probe")
	}
	if st.Graphs != 2 || st.Queries == 0 {
		t.Errorf("campaign did not resume after recovery: %+v", st)
	}
	if st.Robust.RestartFailures != failuresWhileOpen {
		t.Errorf("healed target still failing restarts: %+v", st.Robust)
	}
	if st.Robust.Downtime == 0 {
		t.Errorf("failed restart sequences must book downtime")
	}
}

// liveFlakyRunner builds the reproducibility scenario: a live-faults sim
// behind a seeded flaky connection, under timeouts and retries.
func liveFlakyRunner(seed int64) *Runner {
	sim := gdb.NewMemgraphSim().SetLiveFaults(true)
	fl := gdb.NewFlaky(sim, gdb.FlakyConfig{
		Seed:           seed + 100,
		ErrorRate:      0.15,
		ResetErrorRate: 0.10,
	})
	cfg := DefaultRunnerConfig()
	cfg.Seed = seed
	cfg.Graph = graph.GenConfig{MaxNodes: 10, MaxRels: 30}
	cfg.QueriesPerGraph = 4
	cfg.QueriesPerGT = 2
	cfg.Robust = RobustnessConfig{Timeout: 40 * time.Millisecond}
	return NewRunner(fl, cfg)
}

// TestCampaignReproducible: same seed + same config ⇒ byte-identical
// verdict sequence and identical stats (wall-clock Elapsed aside), even
// with the flaky wrapper and live hang faults enabled. Backoff jitter
// draws from a dedicated RNG precisely so failures never perturb the
// synthesis stream.
func TestCampaignReproducible(t *testing.T) {
	run := func() (string, Stats) {
		rn := liveFlakyRunner(7)
		trace := verdictTrace(rn, 4)
		st := rn.Stats()
		st.Elapsed = 0 // wall-clock; everything else is deterministic
		return trace, st
	}
	traceA, statsA := run()
	traceB, statsB := run()
	if traceA != traceB {
		t.Fatalf("verdict sequences diverge:\n%s\n%s", traceA, traceB)
	}
	if !reflect.DeepEqual(statsA, statsB) {
		t.Fatalf("stats diverge:\n%+v\n%+v", statsA, statsB)
	}
	if statsA.Queries == 0 || statsA.Robust.TransientErrors == 0 {
		t.Errorf("scenario too tame to prove anything: %+v", statsA)
	}
}

// TestPauseInterruptedByCancellation: the restart-backoff pause must not
// stall a canceled campaign. A dead target under a huge backoff would
// sleep for minutes per restart sequence; with the context canceled the
// runner has to bail out of the pause (and the run) almost immediately —
// while still booking the full deterministic downtime.
func TestPauseInterruptedByCancellation(t *testing.T) {
	cfg := tinyRunnerConfig()
	cfg.Robust.RestartBackoff = 30 * time.Second
	cfg.Robust.RestartBackoffMax = time.Minute

	ctx, cancel := context.WithCancel(context.Background())
	rn := NewRunnerCtx(ctx, &flakyReset{Target: gdb.NewReference(), down: true}, cfg)
	time.AfterFunc(50*time.Millisecond, cancel)

	start := time.Now()
	done := make(chan Stats, 1)
	go func() {
		done <- rn.Run(3, nil)
	}()
	select {
	case st := <-done:
		if waited := time.Since(start); waited > 5*time.Second {
			t.Errorf("canceled run still waited %v in backoff pauses", waited)
		}
		if st.Robust.Downtime < 30*time.Second {
			t.Errorf("Downtime = %v; cancellation must cut the wait, not the deterministic accounting", st.Robust.Downtime)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled runner stuck in a backoff pause")
	}
}

// TestBreakerHalfOpenProbeFailure pins the open-breaker economics that
// TestBreakerTripsAndCampaignContinues only brushes past: while the
// target stays dead, every iteration costs exactly one failed half-open
// probe — no restart sequence, no new trip, no backoff downtime — and
// the breaker stays open until a probe finally succeeds.
func TestBreakerHalfOpenProbeFailure(t *testing.T) {
	tgt := &flakyReset{Target: gdb.NewReference(), down: true}
	rn := NewRunner(tgt, tinyRunnerConfig())

	// Trip the breaker (DefaultRobustness threshold: 3 failed sequences).
	st := rn.Run(3, nil)
	if open, _ := rn.Breaker(); !open || st.Robust.BreakerTrips != 1 {
		t.Fatalf("breaker not tripped after 3 dead iterations: open=%v %+v", open, st.Robust)
	}
	base := st.Robust

	// Dead target, open breaker: each iteration is one cheap failed probe.
	const probes = 4
	st = rn.Run(probes, nil)
	if open, _ := rn.Breaker(); !open {
		t.Error("failed probes must leave the breaker open")
	}
	if got := st.Robust.RestartFailures - base.RestartFailures; got != probes {
		t.Errorf("RestartFailures grew by %d over %d open iterations, want exactly one probe each", got, probes)
	}
	if st.Robust.Restarts != base.Restarts {
		t.Errorf("Restarts grew during failed probes: %+v", st.Robust)
	}
	if st.Robust.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, an already-open breaker must not re-trip", st.Robust.BreakerTrips)
	}
	if st.Robust.Downtime != base.Downtime {
		t.Errorf("failed probes booked %v extra downtime, want none (probes skip the backoff ladder)",
			st.Robust.Downtime-base.Downtime)
	}
	if st.Robust.FailedIterations-base.FailedIterations != probes {
		t.Errorf("FailedIterations grew by %d, want %d", st.Robust.FailedIterations-base.FailedIterations, probes)
	}

	// Heal: the next probe closes the breaker with a single restart.
	tgt.down = false
	st = rn.Run(1, nil)
	if open, fails := rn.Breaker(); open || fails != 0 {
		t.Errorf("successful probe must close the breaker and clear the streak: open=%v fails=%d", open, fails)
	}
	if st.Robust.Restarts != base.Restarts+1 {
		t.Errorf("Restarts = %d, want %d (exactly the closing probe)", st.Robust.Restarts, base.Restarts+1)
	}
}

// wedgingTarget is the reference connector, except that its k-th call
// wedges: it ignores cancellation and keeps running the query's plan on
// an engine of its own until release is closed, checking that every run
// gives the first run's outcome.
type wedgingTarget struct {
	*gdb.Sim
	k, calls    int
	release     chan struct{}
	snap        *graph.Snapshot
	schema      *graph.Schema
	runs        atomic.Int64
	mu          sync.Mutex
	wedgedQuery string
	changed     string
}

// CancelAware hides the connector's answer: the runner must call the
// target through the watchdog, which abandons the wedged call.
func (w *wedgingTarget) CancelAware() bool { return false }

func (w *wedgingTarget) ResetSnapshot(snap *graph.Snapshot, schema *graph.Schema) error {
	w.snap, w.schema = snap, schema
	return w.Sim.ResetSnapshot(snap, schema)
}

func (w *wedgingTarget) ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error) {
	if w.calls++; w.calls != w.k || !pq.Planned() {
		if w.calls == w.k {
			w.k++ // wedge on the next planned query instead
		}
		return w.Sim.ExecutePrepared(ctx, pq)
	}
	e := engine.NewReference()
	e.LoadSnapshot(w.snap, w.schema)
	outcome := func() string {
		res, err := e.ExecutePrepared(context.Background(), pq)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(res.Columns, res.Rows)
	}
	first := outcome()
	w.mu.Lock()
	w.wedgedQuery = pq.Text
	w.mu.Unlock()
	for {
		select {
		case <-w.release:
			return nil, errors.New("too late")
		default:
		}
		w.runs.Add(1)
		if got := outcome(); got != first {
			w.mu.Lock()
			w.changed = fmt.Sprintf("first run %s, later run %s", first, got)
			w.mu.Unlock()
		}
	}
}

// TestWedgedCallKeepsItsPlan: the watchdog abandons a call that ignores
// cancellation while the call's goroutine goes on running the query's
// plan, and the runner synthesizes, prepares and runs the next queries
// meanwhile. It must put them in new memory: reusing the scratch the
// running plan lives in, or the AST arenas of the tree the plan reads,
// is a data race (which -race reports) and changes what the abandoned
// call computes. The deadline is far above any query that does not
// wedge, so that only the wedged one times out however loaded the host.
func TestWedgedCallKeepsItsPlan(t *testing.T) {
	w := &wedgingTarget{Sim: gdb.NewReference(), k: 2, release: make(chan struct{})}
	cfg := tinyRunnerConfig()
	cfg.Robust.Timeout = 200 * time.Millisecond
	cfg.Robust.Grace = 10 * time.Millisecond
	cfg.QueriesPerGraph = 6
	rn := NewRunner(w, cfg)
	var queries []string
	rn.Run(2, func(tc *TestCase) { queries = append(queries, tc.Query) })
	close(w.release)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.wedgedQuery == "" {
		t.Fatalf("no planned query wedged among %d", len(queries))
	}
	if w.changed != "" {
		t.Errorf("the abandoned call's plan changed under it: %s", w.changed)
	}
	st := rn.Stats()
	if st.Robust.Timeouts != 1 || st.Robust.Restarts != 1 {
		t.Errorf("want one wedged timeout and one restart: %+v", st.Robust)
	}
	if after := len(queries) - w.k; after < 4 || w.runs.Load() < 2 {
		t.Errorf("%d queries ran after the wedge, the abandoned call ran its plan %d times", after, w.runs.Load())
	}
}
