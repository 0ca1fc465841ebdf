package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gqs/internal/engine"
)

// This file is the runner's resilience layer (§5.4.4): per-query
// wall-clock deadlines (enforced by a watchdog goroutine unless the
// target declares prompt cancellation), panic isolation around
// connector calls, retry-with-backoff for transient connection errors,
// and a restart sequence guarded by a per-target circuit breaker. A
// months-long fuzzing campaign must survive exactly the failure modes it
// hunts — hangs, crashes, unexpected exceptions — plus the flaky
// connections any long-lived client accumulates.

// RobustnessConfig bounds the failure handling of the hardened runner.
// The zero value of every field selects a sensible default; explicit
// negative values disable the corresponding mechanism where noted.
type RobustnessConfig struct {
	// Timeout is the per-query wall-clock deadline. A query exceeding it
	// is canceled and counted as a timeout: an error-bug when a fault
	// hung the connector, a skip otherwise (the paper's treatment of
	// benign timeouts). 0 ⇒ 20s; negative ⇒ no deadline (queries run
	// inline under the campaign's context and may block forever).
	Timeout time.Duration
	// Grace is how long past the deadline a call may take to unwind
	// before the connector is declared wedged: the watchdog abandons
	// the in-flight call, and a cancel-aware target's late result is
	// discarded. 0 ⇒ 1s.
	Grace time.Duration
	// Retries is how many times a transient connector error is retried
	// before the query is given up as a skip. 0 ⇒ 2; negative ⇒ none.
	Retries int
	// RetryBackoff is the base backoff between transient retries,
	// doubled per attempt and jittered deterministically. 0 ⇒ 2ms.
	RetryBackoff time.Duration
	// RestartAttempts bounds the Reset calls of one restart sequence.
	// 0 ⇒ 3.
	RestartAttempts int
	// RestartBackoff is the base of the restart sequence's exponential
	// backoff (first attempt is immediate). 0 ⇒ 5ms.
	RestartBackoff time.Duration
	// RestartBackoffMax caps the exponential restart backoff. 0 ⇒ 250ms.
	RestartBackoffMax time.Duration
	// BreakerThreshold is how many consecutive failed restart sequences
	// trip the per-target circuit breaker. While open, the runner
	// abandons each graph after a single half-open probe instead of
	// hammering a dead target with full restart sequences. 0 ⇒ 3.
	BreakerThreshold int
}

// withDefaults resolves the zero value of each field independently.
func (c RobustnessConfig) withDefaults() RobustnessConfig {
	if c.Timeout == 0 {
		c.Timeout = 20 * time.Second
	}
	if c.Grace <= 0 {
		c.Grace = time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.RestartAttempts <= 0 {
		c.RestartAttempts = 3
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 5 * time.Millisecond
	}
	if c.RestartBackoffMax <= 0 {
		c.RestartBackoffMax = 250 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	return c
}

// RobustnessStats counts everything the resilience layer absorbed so a
// campaign report can show how much failure the harness survived.
type RobustnessStats struct {
	Timeouts         int           // queries canceled at the wall-clock deadline
	Retries          int           // transient-error retries performed
	TransientErrors  int           // transient connector errors observed (incl. retried)
	TransientGiveUps int           // queries skipped after exhausting retries
	PanicsRecovered  int           // connector panics converted to crash verdicts
	Restarts         int           // successful recovery restarts (Reset after failure)
	RestartFailures  int           // individual failed Reset attempts
	BreakerTrips     int           // circuit-breaker open transitions
	AbandonedGraphs  int           // graphs abandoned mid-iteration after failed restarts
	FailedIterations int           // iterations that never got a healthy instance
	Downtime         time.Duration // total backoff waits (deterministic per seed)

	// Checkpoint/resume accounting (durable campaigns only; zero
	// otherwise). These are harness-side facts, not target behaviour, and
	// are therefore excluded from canonical campaign reports.
	CheckpointsWritten int           // records appended to the journal
	CheckpointBytes    int64         // framed bytes appended to the journal
	LastCheckpointAge  time.Duration // age of the newest flush at campaign end
	RestoredIterations int           // iterations restored from the journal on resume
}

// Add accumulates another stats block; campaign-level reports sum the
// per-target runners this way.
func (s *RobustnessStats) Add(o RobustnessStats) {
	s.Timeouts += o.Timeouts
	s.Retries += o.Retries
	s.TransientErrors += o.TransientErrors
	s.TransientGiveUps += o.TransientGiveUps
	s.PanicsRecovered += o.PanicsRecovered
	s.Restarts += o.Restarts
	s.RestartFailures += o.RestartFailures
	s.BreakerTrips += o.BreakerTrips
	s.AbandonedGraphs += o.AbandonedGraphs
	s.FailedIterations += o.FailedIterations
	s.Downtime += o.Downtime
	s.CheckpointsWritten += o.CheckpointsWritten
	s.CheckpointBytes += o.CheckpointBytes
	if o.LastCheckpointAge > s.LastCheckpointAge {
		// The merged age is the oldest (most conservative) of the parts.
		s.LastCheckpointAge = o.LastCheckpointAge
	}
	s.RestoredIterations += o.RestoredIterations
}

// PanicError wraps a panic recovered from a connector call. Unwrap
// exposes the panic value when it is itself an error, so fault
// attribution (BugID) survives the recovery.
type PanicError struct{ Val any }

func (e *PanicError) Error() string { return fmt.Sprintf("panic in connector: %v", e.Val) }

// Unwrap returns the panic value if it was an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Val.(error); ok {
		return err
	}
	return nil
}

// isTransient duck-types transient connector errors (gdb.TransientError
// and any user error with a Transient() bool method). Like hasBugID and
// faultKind it returns before errors.As on a nil error: the As target
// escapes to the heap, and every passing query checks a nil error.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// hasBugID reports whether the error chain carries fault attribution.
func hasBugID(err error) bool {
	if err == nil {
		return false
	}
	var b interface{ BugID() string }
	return errors.As(err, &b)
}

// faultKind extracts the fault class ("crash", "hang", ...) from an
// attributed error chain, or "".
func faultKind(err error) string {
	if err == nil {
		return ""
	}
	var k interface{ FaultKind() string }
	if errors.As(err, &k) {
		return k.FaultKind()
	}
	return ""
}

// execOutcome is the watchdog-normalized result of one connector call.
type execOutcome struct {
	res      *engine.Result
	err      error
	timedOut bool // the wall-clock deadline fired
	panicked bool // the connector panicked (recovered)
	wedged   bool // the connector ignored cancellation past the grace window
}

// executeGuarded runs one query under the per-query deadline, with
// panic isolation. A cancel-aware target's call runs inline, on the
// runner's goroutine (see CancelAwareTarget). Any other target's call
// runs in its own goroutine, the watchdog: if the call ignores
// cancellation for longer than the grace window it is abandoned (the
// goroutine leaks, as any harness abandoning a wedged database call
// must). Either way, a call that ends more than the grace window past
// its deadline is a wedged timeout, and the target is restarted.
func (rn *Runner) executeGuarded(pq *engine.PreparedQuery) execOutcome {
	if rn.rb.Timeout < 0 {
		return rn.executeInline(rn.ctx, pq)
	}
	ctx, cancel := context.WithTimeout(rn.ctx, rn.rb.Timeout)
	defer cancel()
	var o execOutcome
	if rn.cancelAware {
		o = rn.executeInline(ctx, pq)
		if ctx.Err() != nil {
			if deadline, _ := ctx.Deadline(); time.Since(deadline) > rn.rb.Grace {
				return rn.wedged()
			}
			o.timedOut = true
		}
	} else {
		ch := make(chan execOutcome, 1)
		go func() { ch <- rn.executeInline(ctx, pq) }()
		select {
		case o = <-ch:
		case <-ctx.Done():
			grace := time.NewTimer(rn.rb.Grace)
			select {
			case o = <-ch:
				grace.Stop()
			case <-grace.C:
				return rn.wedged()
			}
			o.timedOut = true
		}
	}
	// The deadline may race a late error: normalize so every
	// deadline-canceled failure is classified as a timeout.
	if !o.timedOut && o.err != nil && (errors.Is(o.err, engine.ErrCanceled) || ctx.Err() != nil) {
		o.timedOut = true
	}
	return o
}

// wedged is the outcome of a call that ignored cancellation past the
// grace window: a timeout whose result, if any, is discarded, and
// whose target is restarted. A call the watchdog abandoned may still be
// running the query's plan, so the runner leaves it the scratch the plan
// lives in and the arenas of the tree the plan reads, and synthesizes
// and prepares the next query into new ones.
func (rn *Runner) wedged() execOutcome {
	rn.scratch = new(engine.Scratch)
	rn.syn.leaveTrees()
	return execOutcome{
		timedOut: true,
		wedged:   true,
		err: fmt.Errorf("connector unresponsive %v past its %v deadline: %w",
			rn.rb.Grace, rn.rb.Timeout, engine.ErrCanceled),
	}
}

// executeInline makes one call on the calling goroutine under ctx,
// recovering a panic into a PanicError. ctx is the campaign's own when
// the watchdog is disabled (Timeout < 0), the per-query deadline
// otherwise.
func (rn *Runner) executeInline(ctx context.Context, pq *engine.PreparedQuery) (o execOutcome) {
	defer func() {
		if p := recover(); p != nil {
			o = execOutcome{err: &PanicError{Val: p}, panicked: true}
		}
	}()
	res, err := rn.target.ExecutePrepared(ctx, pq)
	return execOutcome{res: res, err: err}
}

// jitter spreads a backoff deterministically over [d/2, d]: enough to
// decorrelate retry storms, seeded so campaigns stay reproducible.
func (rn *Runner) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(rn.jr.Int63n(int64(half)+1))
}

// pause waits out a backoff and books it as downtime. The wait is
// interruptible: a canceled campaign must not stall up to
// RestartBackoffMax per restart attempt in a plain time.Sleep while the
// caller is trying to shut down. The booked downtime stays the full
// deterministic duration either way — cancellation changes how long we
// actually wait, never the seed-determined accounting.
func (rn *Runner) pause(d time.Duration) {
	if d <= 0 {
		return
	}
	rn.stats.Robust.Downtime += d
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-rn.ctx.Done():
	}
}

// restartBackoff is the wait before restart attempt a: immediate first,
// then exponential with deterministic jitter, capped.
func (rn *Runner) restartBackoff(a int) time.Duration {
	if a == 0 {
		return 0
	}
	d := rn.rb.RestartBackoff << (a - 1)
	if d > rn.rb.RestartBackoffMax || d <= 0 {
		d = rn.rb.RestartBackoffMax
	}
	return rn.jitter(d)
}

// resetTarget brings the target to the iteration's sealed graph.
func (rn *Runner) resetTarget() error {
	return rn.target.ResetSnapshot(rn.curSnap, rn.curSchema)
}

// restartSequence tries to bring the target back with a fresh instance
// of the current graph: bounded Reset attempts under exponential backoff.
// Success closes the breaker's failure streak; a fully failed sequence
// feeds it.
func (rn *Runner) restartSequence() bool {
	for a := 0; a < rn.rb.RestartAttempts; a++ {
		rn.pause(rn.restartBackoff(a))
		if err := rn.resetTarget(); err == nil {
			rn.stats.Robust.Restarts++
			rn.consecFails = 0
			return true
		}
		rn.stats.Robust.RestartFailures++
	}
	rn.consecFails++
	if !rn.breakerOpen && rn.consecFails >= rn.rb.BreakerThreshold {
		rn.breakerOpen = true
		rn.stats.Robust.BreakerTrips++
	}
	return false
}

// recoverTarget restarts the target after a crash or hang; when the
// restart sequence fails the current graph is abandoned and the campaign
// moves on (degraded, not dead).
func (rn *Runner) recoverTarget() {
	if !rn.restartSequence() {
		rn.abandonGraph = true
	}
}

// ensureUp prepares a healthy instance loaded with the current graph at
// the top of an iteration. With the breaker open it makes exactly one
// half-open probe; a success closes the breaker, a failure abandons the
// iteration cheaply.
func (rn *Runner) ensureUp() bool {
	if rn.breakerOpen {
		if err := rn.resetTarget(); err != nil {
			rn.consecFails++
			rn.stats.Robust.RestartFailures++
			return false
		}
		rn.breakerOpen = false
		rn.consecFails = 0
		rn.stats.Robust.Restarts++
		return true
	}
	if err := rn.resetTarget(); err == nil {
		return true
	}
	return rn.restartSequence()
}
